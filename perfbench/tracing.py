"""Per-layer tracing from outside the package.

The tracer replaces the module-level names through which the eight
layers call one another with timing wrappers, and keeps one span
(name, start, end, parent) per call in memory.  A layer's self time is
its spans' time minus the time of their child spans; since every
operation of a traced pass opens a root span, the self times of all
layers add up to the traced pass time.

Names that a later refactor removes are reported as absent and skipped.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time

LAYERS = ("integrate", "problem_model", "control_partition", "solver_sampled",
          "pmp_check", "reference_oracles", "convergence_harness", "cli")


def _grid_steps_state(args, kwargs):
    grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
    return grid.K


def _grid_steps_costate(args, kwargs):
    grid = kwargs.get("grid", args[5] if len(args) > 5 else None)
    return (grid if grid is not None else args[1].grid).K


def _sample_points(args, kwargs):
    ts = kwargs.get("ts", args[1] if len(args) > 1 else None)
    return len(ts)


def _after_solve(tracer, result, marches_before):
    diag = result.diagnostics
    tracer.solver["inner"] += diag.iterations
    tracer.solver["outer"] += diag.outer_iterations
    # forward marches = 1 initial + 1 per trial step
    tracer.solver["trials"] += (tracer.counts.get("integrate.state", 0)
                                - marches_before - 1)
    return result


def _after_sweep(tracer, result, marches_before):
    report = result[0] if isinstance(result, tuple) else result
    tracer.rows += len(report.rows)
    return result


def _after_load(tracer, result, marches_before):
    return tracer.instrument_problem(result)


# (module, attribute, span name, work per call, result handler).  The
# span name's first component is the layer the time is charged to; the
# CLI's file output goes through `convergence_harness.write_report` but
# is charged to the CLI, whose job it is.
SPAN_HOOKS = (
    ("solver_sampled", "solve", "solver_sampled.solve", None, _after_solve),
    ("convergence_harness", "solve", "solver_sampled.solve", None,
     _after_solve),
    ("cli", "solve", "solver_sampled.solve", None, _after_solve),
    ("solver_sampled", "integrate_state", "integrate.state",
     _grid_steps_state, None),
    ("solver_sampled", "integrate_costate", "integrate.costate",
     _grid_steps_costate, None),
    ("pmp_check", "integrate_variation", "integrate.variation", None, None),
    ("integrate", "Trajectory.sample", "integrate.sample", _sample_points,
     None),
    ("integrate", "CostateTrajectory.sample", "integrate.sample",
     _sample_points, None),
    ("solver_sampled", "project", "problem_model.project", None, None),
    ("pmp_check", "project", "problem_model.project", None, None),
    ("convergence_harness", "project", "problem_model.project", None, None),
    ("convergence_harness", "resample_onto", "control_partition.resample",
     None, None),
    ("solver_sampled", "evaluate_extremal", "pmp_check.certify", None, None),
    ("cli", "evaluate_extremal", "pmp_check.certify", None, None),
    ("pmp_check", "ae_residual", "pmp_check.residual", None, None),
    ("pmp_check", "ahg_residual", "pmp_check.residual", None, None),
    ("pmp_check", "hg_residual", "pmp_check.residual", None, None),
    ("pmp_check", "hm_gap", "pmp_check.hm", None, None),
    ("pmp_check", "lift_inequality", "pmp_check.lift", None, None),
    ("cli", "solve_lq_permanent", "reference_oracles.permanent", None, None),
    ("reference_oracles", "solve_lq_sampled_exact", "reference_oracles.exact",
     None, None),
    ("convergence_harness", "sweep", "convergence_harness.sweep", None,
     _after_sweep),
    ("cli", "main", "cli.main", None, None),
    ("cli", "read_control_csv", "cli.read", None, None),
    ("cli", "read_state_csv", "cli.read", None, None),
    ("cli", "read_costate_csv", "cli.read", None, None),
    ("cli", "load_problem_config", "cli.read", None, _after_load),
    ("convergence_harness", "write_report", "cli.write", None, None),
)

# Calls only counted, not timed: they are too frequent for a span each.
COUNT_HOOKS = (
    ("pmp_check", "hamiltonian", "pmp_check.hamiltonian"),
    ("reference_oracles", "_ReducedQp.kkt_solve", "reference_oracles.kkt_solve"),
    ("reference_oracles", "expm", "reference_oracles.expm"),
)

# OcpProblem callables counted on every problem the program receives.
F_FIELDS = ("dynamics",)
DERIV_FIELDS = ("dynamics_jac_x", "dynamics_jac_u", "cost_grad_x",
                "cost_grad_u")


def _resolve(module, dotted):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, package: str, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.ops: list = []          # op index of each span
        self.op_scale: list = []     # calibration factor of each op
        self.stack: list = []
        self.counts: dict = {}
        self.work: dict = {}
        self.solver = {"inner": 0, "outer": 0, "trials": 0}
        self.rows = 0
        self.absent: list = []
        self._patched: list = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(None)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(len(self.op_scale))
        self.stack.append(idx)
        self.counts[name] = self.counts.get(name, 0) + 1
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self.stack.pop()

    def op_done(self, scale: float) -> None:
        self.op_scale.append(scale)

    def _count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, fn, name, work, after):
        tracer = self

        # A refactor that changes arguments or results loses the count,
        # never the call.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                try:
                    amount = work(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    amount = 0
                    tracer._note_absent(f"work count of {name}")
                tracer.work[name] = tracer.work.get(name, 0) + amount
            marches = tracer.counts.get("integrate.state", 0)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                try:
                    result = after(tracer, result, marches)
                except (AttributeError, TypeError):
                    tracer._note_absent(f"result of {name}")
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._count(name)
            return fn(*args, **kwargs)
        return wrapper

    def instrument_problem(self, prob):
        """A copy of an OcpProblem whose callables count their calls."""
        fields = {}
        for group, names in (("problem_model.f_evals", F_FIELDS),
                             ("problem_model.deriv_evals", DERIV_FIELDS)):
            for field in names:
                fn = getattr(prob, field, None)
                if fn is None:
                    self._note_absent(f"OcpProblem.{field}")
                    continue
                fields[field] = self._count_wrapper(fn, group)
        return dataclasses.replace(prob, **fields)

    def _note_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def install(self) -> None:
        for mod_name, attr, name, work, after in SPAN_HOOKS:
            self._patch(mod_name, attr,
                        lambda fn, name=name, work=work, after=after:
                        self._span_wrapper(fn, name, work, after))
        for mod_name, attr, name in COUNT_HOOKS:
            self._patch(mod_name, attr,
                        lambda fn, name=name: self._count_wrapper(fn, name))

    def _patch(self, mod_name, attr, make):
        try:
            module = importlib.import_module(f"{self.package}.{mod_name}")
            owner, leaf = _resolve(module, attr)
            original = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
        except (ImportError, AttributeError, KeyError):
            self._note_absent(f"{mod_name}.{attr}")
            return
        setattr(owner, leaf, make(original))
        self._patched.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def _scaled(self, idx: int) -> float:
        return (self.ends[idx] - self.starts[idx]) * self.op_scale[self.ops[idx]]

    def inclusive(self, name: str) -> float:
        """Calibrated time in spans of `name`, not counting spans of the
        same name nested inside one another."""
        total = 0.0
        for idx, span_name in enumerate(self.names):
            if span_name != name:
                continue
            parent = self.parents[idx]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                total += self._scaled(idx)
        return total

    def self_times(self) -> dict:
        """Calibrated self time per layer."""
        own = [self._scaled(idx) for idx in range(len(self.names))]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self._scaled(idx)
        out = {layer: 0.0 for layer in LAYERS}
        for idx, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own[idx]
        return out

    def metrics(self) -> dict:
        c = self.counts.get
        own = self.self_times()
        state_s = self.inclusive("integrate.state")
        costate_s = self.inclusive("integrate.costate")
        steps = self.work.get("integrate.state", 0) + \
            self.work.get("integrate.costate", 0)
        trials = self.solver["trials"]
        m = {
            "integrate.state_marches": (c("integrate.state", 0), "count"),
            "integrate.state_s": (state_s, "s"),
            "integrate.costate_marches": (c("integrate.costate", 0), "count"),
            "integrate.costate_s": (costate_s, "s"),
            "integrate.step_us": (1e6 * (state_s + costate_s) / steps
                                  if steps else 0.0, "us"),
            "integrate.variation_marches": (c("integrate.variation", 0),
                                            "count"),
            "integrate.variation_s": (self.inclusive("integrate.variation"),
                                      "s"),
            "integrate.sample_points": (self.work.get("integrate.sample", 0),
                                        "count"),
            "integrate.sample_s": (self.inclusive("integrate.sample"), "s"),
            "problem_model.f_evals": (c("problem_model.f_evals", 0), "count"),
            "problem_model.deriv_evals": (c("problem_model.deriv_evals", 0),
                                          "count"),
            "problem_model.project_calls": (c("problem_model.project", 0),
                                            "count"),
            "problem_model.project_s": (self.inclusive("problem_model.project"),
                                        "s"),
            "control_partition.resample_s": (
                self.inclusive("control_partition.resample"), "s"),
            "solver_sampled.inner_iters": (self.solver["inner"], "count"),
            "solver_sampled.outer_iters": (self.solver["outer"], "count"),
            "solver_sampled.trial_steps": (trials, "count"),
            "solver_sampled.backtracks": (trials - self.solver["inner"],
                                          "count"),
            "pmp_check.certify_s": (self.inclusive("pmp_check.certify"), "s"),
            "pmp_check.residual_s": (self.inclusive("pmp_check.residual"),
                                     "s"),
            "pmp_check.hm_s": (self.inclusive("pmp_check.hm"), "s"),
            "pmp_check.hamiltonian_evals": (c("pmp_check.hamiltonian", 0),
                                            "count"),
            "pmp_check.lift_s": (self.inclusive("pmp_check.lift"), "s"),
            "reference_oracles.permanent_s": (
                self.inclusive("reference_oracles.permanent"), "s"),
            "reference_oracles.exact_s": (
                self.inclusive("reference_oracles.exact"), "s"),
            "reference_oracles.kkt_solves": (
                c("reference_oracles.kkt_solve", 0), "count"),
            "reference_oracles.expm_calls": (c("reference_oracles.expm", 0),
                                             "count"),
            "convergence_harness.sweep_s": (
                self.inclusive("convergence_harness.sweep"), "s"),
            "convergence_harness.rows": (self.rows, "count"),
            "cli.read_s": (self.inclusive("cli.read"), "s"),
            "cli.write_s": (self.inclusive("cli.write"), "s"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (own[layer], "s")
        m["trace.spans"] = (len(self.names), "count")
        return m

    def dump(self, path: str, extra: dict) -> None:
        """Write every span, and the run's summary, as JSON."""
        doc = dict(extra)
        doc["absent"] = self.absent
        doc["op_scale"] = self.op_scale
        doc["spans"] = {"fields": ["name", "start", "end", "parent", "op"],
                        "rows": [list(r) for r in zip(self.names, self.starts,
                                                      self.ends, self.parents,
                                                      self.ops)]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
