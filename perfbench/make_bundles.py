"""Make the stored input bundles of the `check` workload.

    python3 perfbench/make_bundles.py                # every variant
    python3 perfbench/make_bundles.py --seeds 7 12   # the seeds' variants

A run with seed s checks the bundles of variant s % BUNDLE_VARIANTS, so
its set-up only copies files.  Each variant holds
- lq/: the exact-oracle optimum of `lq_double_integrator` at N=32;
- aq/: the solver's optimum of `affine_quadratic` at N=32;
with initial states drawn for the variant.  cubic/ is the same for every
seed: the zero control with unit costate on `cubic_counterexample`.
Each bundle carries the problem.json that `sampled-ocp check --config`
reads.  All grids use 256 RK4 steps, the solver's default.
"""

import argparse
import json
import os
import shutil

import numpy as np

from run import import_package
import workloads

N = 32
H_MAX = 1.0 / 256


def write_bundle(pkg, directory, config, control, state, costate):
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    with open(os.path.join(directory, "problem.json"), "w",
              encoding="utf-8") as fh:
        json.dump(config, fh)
        fh.write("\n")
    pkg.control_partition.write_control_csv(
        os.path.join(directory, "control.csv"), control)
    pkg.integrate.write_state_csv(os.path.join(directory, "state.csv"), state)
    pkg.integrate.write_costate_csv(os.path.join(directory, "costate.csv"),
                                    costate)


def make_variant(pkg, variant: int) -> None:
    out = os.path.join(workloads.BUNDLES, f"v{variant}")
    x0 = workloads.variant_x0(variant)
    part = pkg.uniform_partition(N, 1.0)

    cfg = {"problem": "lq_double_integrator", "x0": x0["lq"]}
    prob = pkg.build_problem(cfg["problem"], x0=cfg["x0"])
    sol = pkg.solve_lq_sampled_exact(prob.lq, part, prob.control_set,
                                     h_max=H_MAX)
    write_bundle(pkg, os.path.join(out, "lq"), cfg, sol.control, sol.state,
                 sol.costate)

    cfg = {"problem": "affine_quadratic", "x0": x0["aq"]}
    prob = pkg.build_problem(cfg["problem"], x0=cfg["x0"])
    sol = pkg.solve(prob, part)
    write_bundle(pkg, os.path.join(out, "aq"), cfg, sol.control, sol.state,
                 sol.costate)


def make_cubic(pkg) -> None:
    prob = pkg.build_problem("cubic_counterexample")
    part = pkg.uniform_partition(N, 1.0)
    grid = pkg.build_time_grid(1.0, part, h_max=H_MAX)
    u = pkg.PiecewiseConstantControl(part, np.zeros((N, 1)))
    x = pkg.integrate_state(prob, u, grid)
    p = pkg.integrate_costate(prob, x, u, p0=-1.0, pT=np.array([1.0]))
    write_bundle(pkg, os.path.join(workloads.BUNDLES, "cubic"),
                 {"problem": "cubic_counterexample"}, u, x, p)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="*",
                    help="make only the variants these seeds use")
    args = ap.parse_args()
    pkg = import_package()
    variants = sorted({workloads.bundle_variant(s) for s in args.seeds}) \
        if args.seeds else range(workloads.BUNDLE_VARIANTS)
    for v in variants:
        make_variant(pkg, v)
        print(f"variant {v}: {workloads.variant_x0(v)}")
    make_cubic(pkg)


if __name__ == "__main__":
    main()
