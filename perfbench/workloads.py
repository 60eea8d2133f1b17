"""The benchmark's three workloads: inputs drawn from the seed, the fixed
list of operations one pass issues, and the check of every output.

- solve: cold-start certified `solve` calls on the catalog problems, and
  the exact LQ oracle on every LQ input;
- converge: the CLI refinement sweep with cascade warm starts;
- check: the CLI certificate check on stored bundles, two of which must
  be rejected.

In `solve` the seed moves every drawn initial state by at most
X0_SPREAD (relative) around the catalog default; over the pass's five
solves the work then stays within a few percent across seeds.  The
sweep in `converge` is far more sensitive: its line searches take
291k to 370k RK4 steps for initial states within 1% of (1, 0), and
300k to 425k within 1e-9.  Its seed therefore draws only the sign of
the initial state, an exact symmetry of the double integrator under
which the solver does the same work on mirrored numbers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import refs

HERE = os.path.dirname(os.path.abspath(__file__))
BUNDLES = os.path.join(HERE, "bundles")

X0_SPREAD = 0.01
BUNDLE_VARIANTS = 4
CONVERGE_NS = (2, 4, 8, 16, 32, 64)
BOUND = 4.0

# Random streams, one per purpose, so adding a draw to one workload
# leaves the others' inputs unchanged.
STREAM_SOLVE, STREAM_CONVERGE, STREAM_CORRUPT, STREAM_VARIANT = 1, 2, 3, 4

# The catalog's double integrator, restated for the references.
DI = dict(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
          Q=[[1.0, 0.0], [0.0, 1.0]], R=[[1.0]], horizon=1.0,
          xT=[0.0, 0.0])

# Tolerances of the output checks.  The solver stops at feasibility and
# stationarity 1e-8 on an RK4 grid of T/256; the oracle is exact.
SOLVE_COST_RTOL = 1e-6
SOLVE_U_ATOL = 1e-3
EXACT_COST_RTOL = 1e-9
EXACT_U_ATOL = 1e-7
COST_FLOOR_SLACK = 1e-7
PERMANENT_RTOL = 1e-8
IVP_DEFECT_TOL = 1e-6
IVP_COST_RTOL = 1e-6
HM_TOL = 1e-12


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed & 0xFFFFFFFFFFFFFFFF])


def draw_x0(rng, base) -> list:
    scale = max(abs(v) for v in base)
    step = rng.uniform(-X0_SPREAD, X0_SPREAD, len(base))
    return [float(b + scale * d) for b, d in zip(base, step)]


def bundle_variant(seed: int) -> int:
    return seed % BUNDLE_VARIANTS


def variant_x0(variant: int) -> dict:
    """Initial states of the stored `check` bundles of one variant."""
    rng = rng_for(variant, STREAM_VARIANT)
    return {"lq": draw_x0(rng, (1.0, 0.0)), "aq": draw_x0(rng, (0.5, 0.0))}


@dataclass
class Op:
    name: str
    layer: str                               # layer the op enters first
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right


class Workload:
    """Inputs staged in `run_dir` plus the operations of one pass."""

    def __init__(self, pkg, run_dir: str):
        self.pkg = pkg
        self.run_dir = run_dir
        self.problems: dict = {}
        self._plain: dict = {}
        self.ops: list = []
        self._refs: dict = {}

    def write_config(self, name: str, cfg: dict) -> str:
        path = os.path.join(self.run_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return path

    def ref(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def instrument(self, tracer) -> None:
        """Swap in problems whose callables the tracer counts."""
        self._plain = dict(self.problems)
        self.problems.update({k: tracer.instrument_problem(p)
                              for k, p in self.problems.items()})

    def restore(self) -> None:
        self.problems.update(self._plain)

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(argv)
        return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# shared checks


def _di_sampled(x0, N, bound=None):
    q = refs.SampledLq(DI["A"], DI["B"], DI["Q"], DI["R"], x0, DI["xT"],
                       DI["horizon"], N)
    return q.solve() if bound is None else q.solve_bounded(-bound, bound)


def _di_permanent(x0):
    return refs.permanent_lq(DI["A"], DI["B"], DI["Q"], DI["R"], x0, DI["xT"],
                             DI["horizon"])[0]


def _compare(sol, u_ref, j_ref, j_perm, cost_rtol, u_atol) -> Optional[str]:
    problems = []
    if abs(sol.cost - j_ref) > cost_rtol * (1.0 + abs(j_ref)):
        problems.append(f"cost {sol.cost!r} vs reference {j_ref!r}")
    du = float(np.max(np.abs(np.asarray(sol.control.values) - u_ref)))
    if du > u_atol * (1.0 + float(np.max(np.abs(u_ref)))):
        problems.append(f"controls differ from the reference by {du:.3e}")
    if sol.cost < j_perm - COST_FLOOR_SLACK:
        problems.append(f"cost {sol.cost!r} below the permanent optimum "
                        f"{j_perm!r}")
    return "; ".join(problems) or None


# ---------------------------------------------------------------------------
# solve


def setup_solve(pkg, seed: int, run_dir: str) -> Workload:
    wl = Workload(pkg, run_dir)
    rng = rng_for(seed, STREAM_SOLVE)
    configs = {
        "lq": {"problem": "lq_double_integrator",
               "x0": draw_x0(rng, (1.0, 0.0))},
        "aq": {"problem": "affine_quadratic", "x0": draw_x0(rng, (0.5, 0.0))},
        # the bound is active on the first and last interval at N=4
        "bounded": {"problem": "lq_double_integrator",
                    "params": {"u_bound": BOUND},
                    "x0": draw_x0(rng, (0.9, 0.0))},
        # fixed for every seed: at x0 = (1, 0) the bound is active on
        # every interval and the exact oracle's active-set enumeration
        # gives up (ActiveSetBudgetError) for N >= 6
        "corner": {"problem": "lq_double_integrator",
                   "params": {"u_bound": BOUND}},
    }
    for key, cfg in configs.items():
        wl.problems[key] = pkg.load_problem_config(wl.write_config(key, cfg))
    x0 = {k: wl.problems[k].x0.tolist() for k in configs}
    part = {N: pkg.uniform_partition(N, 1.0) for N in (4, 8, 32, 64, 256)}
    solver, oracles = pkg.solver_sampled, pkg.reference_oracles

    def sampled(key, N, bound=None):
        return wl.ref(("sampled", key, N),
                      lambda: _di_sampled(x0[key], N, bound))

    def permanent(key):
        return wl.ref(("permanent", key), lambda: _di_permanent(x0[key]))

    def solve_op(key, N, bound=None):
        def check(sol):
            if not sol.residuals.all_pass():
                return f"returned solution fails its certificate: " \
                       f"{sol.residuals.verdicts()}"
            return _compare(sol, *sampled(key, N, bound), permanent(key),
                            SOLVE_COST_RTOL, SOLVE_U_ATOL)
        return Op(f"solve {key} N={N}", "solver_sampled",
                  lambda: solver.solve(wl.problems[key], part[N]), check)

    def exact_op(key, N, bound=None):
        def check(sol):
            return _compare(sol, *sampled(key, N, bound), permanent(key),
                            EXACT_COST_RTOL, EXACT_U_ATOL)
        return Op(f"exact {key} N={N}", "reference_oracles",
                  lambda: oracles.solve_lq_sampled_exact(
                      wl.problems[key].lq, part[N],
                      wl.problems[key].control_set), check)

    def affine_check(sol):
        if not sol.residuals.all_pass():
            return f"returned solution fails its certificate: " \
                   f"{sol.residuals.verdicts()}"
        xT, cost = refs.reintegrate(refs.affine_quadratic_rhs(), x0["aq"],
                                    sol.control.partition.times,
                                    sol.control.values[:, 0])
        defect = float(np.linalg.norm(xT))
        if defect > IVP_DEFECT_TOL:
            return f"terminal defect {defect:.3e} under solve_ivp"
        if abs(cost - sol.cost) > IVP_COST_RTOL * (1.0 + abs(cost)):
            return f"cost {sol.cost!r} vs {cost!r} under solve_ivp"
        return None

    for N in (8, 64, 256):
        wl.ops += [solve_op("lq", N), exact_op("lq", N)]
    wl.ops.append(Op("solve aq N=32", "solver_sampled",
                     lambda: solver.solve(wl.problems["aq"], part[32]),
                     affine_check))
    wl.ops += [solve_op("bounded", 4, BOUND), exact_op("bounded", 4, BOUND),
               exact_op("corner", 8, BOUND)]
    return wl


# ---------------------------------------------------------------------------
# converge


def _read_report(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def setup_converge(pkg, seed: int, run_dir: str) -> Workload:
    wl = Workload(pkg, run_dir)
    sign = -1.0 if rng_for(seed, STREAM_CONVERGE).integers(2) else 1.0
    x0 = [sign * 1.0, sign * 0.0]
    cfg = wl.write_config("converge", {"problem": "lq_double_integrator",
                                       "x0": x0})
    out = os.path.join(run_dir, "converge-out")
    argv = ["converge", "--config", cfg,
            "--Ns", ",".join(str(n) for n in CONVERGE_NS), "--out", out]

    def check(result):
        code, _, err = result
        if code != 0:
            return f"converge exited {code}: {err.strip()[-300:]}"
        rows = _read_report(os.path.join(out, "report.csv"))
        if [int(r["N"]) for r in rows] != list(CONVERGE_NS):
            return f"report rows {[r['N'] for r in rows]}"
        for col in ("cost_err", "state_sup_err", "costate_sup_err"):
            if not rows[-1][col] <= 0.1 * rows[0][col]:
                return f"{col} fell from {rows[0][col]:.3e} only to " \
                       f"{rows[-1][col]:.3e}"
        with open(os.path.join(out, "summary"), encoding="utf-8") as fh:
            ref_cost = json.load(fh)["reference"]["cost"]
        j_perm = wl.ref("permanent", lambda: _di_permanent(x0))
        if abs(ref_cost - j_perm) > PERMANENT_RTOL * (1.0 + j_perm):
            return f"permanent reference cost {ref_cost!r} vs {j_perm!r}"
        for r in rows:
            N = int(r["N"])
            j_ref = wl.ref(("sampled", N), lambda: _di_sampled(x0, N))[1]
            if abs(r["cost"] - j_ref) > SOLVE_COST_RTOL * (1.0 + j_ref):
                return f"N={N}: cost {r['cost']!r} vs exact {j_ref!r}"
            if r["cost"] < j_perm - COST_FLOOR_SLACK:
                return f"N={N}: cost below the permanent optimum"
        return None

    wl.ops.append(Op("converge lq Ns=2..64", "cli",
                     lambda: wl.run_cli(argv), check))
    return wl


# ---------------------------------------------------------------------------
# check


def _corrupt_costate(path: str, rng) -> None:
    """Shift one interior costate node; the adjoint residual must catch it."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = int(rng.integers(2, len(lines) - 1))
    fields = lines[row].split(",")
    fields[1] = repr(float(fields[1]) + float(rng.uniform(0.01, 0.1)))
    lines[row] = ",".join(fields)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def setup_check(pkg, seed: int, run_dir: str) -> Workload:
    wl = Workload(pkg, run_dir)
    variant = os.path.join(BUNDLES, f"v{bundle_variant(seed)}")
    staged = {}
    for name, src in (("lq", os.path.join(variant, "lq")),
                      ("aq", os.path.join(variant, "aq")),
                      ("cubic", os.path.join(BUNDLES, "cubic"))):
        staged[name] = shutil.copytree(src, os.path.join(run_dir, name))
    staged["corrupt"] = shutil.copytree(staged["lq"],
                                        os.path.join(run_dir, "corrupt"))
    _corrupt_costate(os.path.join(staged["corrupt"], "costate.csv"),
                     rng_for(seed, STREAM_CORRUPT))
    gap = refs.cubic_gap()

    def argv(name):
        return ["check", staged[name], "--config",
                os.path.join(staged[name], "problem.json"), "--require-hm"]

    def expect(code_wanted, hm_wanted=None):
        def check(result):
            code, out, err = result
            if code != code_wanted:
                return f"exit {code}, wanted {code_wanted}: " \
                       f"{err.strip()[-300:]}"
            if hm_wanted is not None:
                hm = json.loads(out)["sections"]["hm"]["value"]
                if abs(hm - hm_wanted) > HM_TOL:
                    return f"hm {hm!r}, analytic gap {hm_wanted!r}"
            return None
        return check

    for name, code, hm in (("lq", 0, None), ("aq", 0, None),
                           ("cubic", 3, gap), ("corrupt", 3, None)):
        wl.ops.append(Op(f"check {name}", "cli",
                         lambda name=name: wl.run_cli(argv(name)),
                         expect(code, hm)))
    return wl


SETUP = {"solve": setup_solve, "converge": setup_converge,
         "check": setup_check}
