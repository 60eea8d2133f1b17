"""Steadiness of the benchmark: run a workload k times and summarize.

    python3 perfbench/steady.py --workload solve --runs 10
    python3 perfbench/steady.py --workload check --runs 10 --first-seed 101
    python3 perfbench/steady.py --kernel

Each run is a fresh `run.py` process with its own seed (first-seed,
first-seed + 1, ...).  For every end-to-end metric, calibrated and raw,
it prints the median, the quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median; the bounds in BENCHMARK.json
are set from these spreads.  It also prints the share of operations
that failed, which must be the same in every run.  The runs' results
go to perfbench/_runs/steady-<workload>-<first seed>.json.

--kernel times the calibration kernel alone for 20 s; its median is
the calibration constant REF_KERNEL_S in calib.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRICS = ("setup_s", "pass_s", "cpu_s", "peak_rss_mb")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run failed ({proc.returncode}): {proc.stderr}")
    result = json.loads(lines[-1])
    raw = next(json.loads(line[4:]) for line in lines
               if line.startswith("RAW "))
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "calibrated": {k: v["value"] for k, v in result["metrics"].items()},
            "raw": raw}


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def summarize(runs: list) -> None:
    print(f"{'metric':22s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>8s}")
    for kind in ("calibrated", "raw"):
        for name in METRICS:
            values = [r[kind][name] for r in runs if name in r[kind]]
            if len(values) < 2:
                continue
            med, q1, q3, rel = spread(values)
            print(f"{kind[:3] + ' ' + name:22s} {med:10.4f} {q1:10.4f} "
                  f"{q3:10.4f} {100 * rel:7.2f}%")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share per run: {shares}; all correct: "
          f"{all(r['correct'] for r in runs)}")


def kernel_stats(seconds: float = 20.0) -> None:
    from calib import Calibrator, kernel
    Calibrator()
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    med, q1, q3, rel = spread(times)
    print(f"kernel: {len(times)} calls, median {med:.6f} s, quartiles "
          f"{q1:.6f} .. {q3:.6f} s ({100 * rel:.1f}%)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("solve", "converge", "check"))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length; default from BENCHMARK.json")
    ap.add_argument("--kernel", action="store_true")
    args = ap.parse_args()
    if args.kernel:
        kernel_stats()
        return
    if args.workload is None:
        ap.error("--workload or --kernel is required")
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    runs = []
    for i in range(args.runs):
        runs.append(one_run(args.workload, args.first_seed + i, seconds))
        r = runs[-1]
        print(f"seed {r['seed']}: " + "  ".join(
            f"{k} {r['calibrated'][k]:.4f} ({r['raw'].get(k, float('nan')):.4f} raw)"
            for k in ("setup_s", "pass_s", "cpu_s")), flush=True)
    summarize(runs)
    os.makedirs(os.path.join(HERE, "_runs"), exist_ok=True)
    out = os.path.join(HERE, "_runs",
                       f"steady-{args.workload}-{args.first_seed}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)


if __name__ == "__main__":
    main()
