"""Outside-in span recorder for the package layers.

The recorder wraps every public function of each layer module and keeps a
span per call: name, start, end, parent span and operation id.  The package
imports names with ``from .x import y``, so each wrapper is rebound in
every package module that holds the original (``dual_objective`` inside
``dual``, the conjugates inside ``dual``, ``solve_on_path_tree`` inside
``primal`` and ``dual``, and so on).  Spans stay in memory and are written
out once, when the run ends.

Self time of a span is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.  The counts (calls, trials,
accepted moves, states, leaves) are deterministic and must repeat exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "weakbsde"
LAYERS = ("scenario", "lattice", "drivers", "bsde", "control", "primal",
          "dual", "runner", "acceptance")


def rebind(original, replacement, package: str = PACKAGE):
    """Point every package-module name bound to ``original`` at
    ``replacement``; returns a function that undoes it."""
    done = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                done.append((mod, attr))

    def undo():
        for mod, attr in done:
            setattr(mod, attr, original)
    return undo


# -- hooks: counts read from arguments and return values --------------------

def _dual_value_enter(tr, args, kwargs):
    tr.dual_frames.append([None, 0])      # [best certificate, feasible evals]


def _dual_value_exit(tr, args, kwargs, out):
    best, feasible = tr.dual_frames.pop()
    if out is not None:
        tr.counts["dual.trials"] += out["n_evaluations"]
        tr.counts["dual.infeasible_trials"] += out["n_evaluations"] - feasible


def _dual_objective_exit(tr, args, kwargs, out):
    # the accept rule of dual_value: a trial is kept only when it is strictly
    # below the incumbent, and the first evaluation is the incumbent
    if out is None or not tr.dual_frames:
        return
    frame = tr.dual_frames[-1]
    frame[1] += 1
    if frame[0] is None:
        frame[0] = out
    elif out < frame[0]:
        frame[0] = out
        tr.counts["dual.accepted_moves"] += 1


def _path_tree_exit(tr, args, kwargs, out):
    leaves = args[2] if len(args) > 2 else kwargs["leaf_values"]
    tr.counts["bsde.path_tree_leaves"] += int(np.size(leaves))


def _dp_exit(tr, args, kwargs, out):
    if out is not None:
        tr.counts["primal.dp_states"] += sum(g.size for level in out.grids
                                             for g in level)


def _attainment_exit(tr, args, kwargs, out):
    if out is not None:
        tr.counts["primal.attainment_prefixes"] += sum(
            np.size(c) for c in out["controls"])


def _policy_oracle_exit(tr, args, kwargs, out):
    if out is not None:
        tr.counts["primal.oracle_policies"] += out["n_policies"]
        tr.counts["primal.oracle_admissible"] += out["n_admissible"]


def _weak_oracle_exit(tr, args, kwargs, out):
    if out is not None:
        tr.counts["primal.oracle_candidates"] += out["n_evaluated"]


ENTER_HOOKS = {"dual.dual_value": _dual_value_enter}
EXIT_HOOKS = {
    "dual.dual_value": _dual_value_exit,
    "dual.dual_objective": _dual_objective_exit,
    "bsde.solve_on_path_tree": _path_tree_exit,
    "primal.primal_value_dp": _dp_exit,
    "primal.attainment_check": _attainment_exit,
    "primal.brute_force_policy_value": _policy_oracle_exit,
    "primal.brute_force_weak_formulation": _weak_oracle_exit,
}


class Tracer:
    """Span recorder; ``install`` wraps, ``uninstall`` restores.

    ``criteria`` are the acceptance criteria numbers that get a
    ``acceptance.cNN_s`` metric.
    """

    def __init__(self, criteria=()):
        self.criteria = tuple(criteria)
        self.names = []
        self._ids = {}
        self._undo = []
        self.op = 0
        self.row_name = array("i")
        self.row_parent = array("i")
        self.row_op = array("i")
        self.row_start = array("d")
        self.row_end = array("d")
        self.begin_op(0)

    # -- bookkeeping ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer.append(name.split(".", 1)[0])
            for col in (self.calls, self.errors, self.active):
                col.append(0)
            for col in (self.self_s, self.incl_s):
                col.append(0.0)
        return nid

    def begin_op(self, op: int) -> None:
        """Start a fresh aggregation window; spans keep accumulating."""
        n = len(self.names)
        self.op = op
        self.first_row = len(self.row_name)
        self.layer = [name.split(".", 1)[0] for name in self.names]
        self.calls, self.errors, self.active = [0] * n, [0] * n, [0] * n
        self.self_s, self.incl_s = [0.0] * n, [0.0] * n
        self.stack = []
        self.dual_frames = []
        self.counts = Counter()

    def _wrap(self, fn, name: str, namer=None):
        tracer = self
        base = self._nid(name)
        enter_hook = ENTER_HOOKS.get(name)
        exit_hook = EXIT_HOOKS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = base if namer is None else namer(tracer, args)
            stack = tracer.stack
            row = len(tracer.row_name)
            tracer.row_name.append(nid)
            tracer.row_parent.append(stack[-1][0] if stack else -1)
            tracer.row_op.append(tracer.op)
            tracer.row_start.append(0.0)
            tracer.row_end.append(0.0)
            tracer.active[nid] += 1
            frame = [row, 0.0, nid]
            stack.append(frame)
            if enter_hook is not None:
                enter_hook(tracer, args, kwargs)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, start, perf(), failed=True)
                if exit_hook is not None:
                    exit_hook(tracer, args, kwargs, None)
                raise
            tracer._close(frame, start, perf(), failed=False)
            if exit_hook is not None:
                exit_hook(tracer, args, kwargs, out)
            return out

        return traced

    def _close(self, frame, start: float, end: float, failed: bool) -> None:
        row, child, nid = frame
        stack = self.stack
        stack.pop()
        dur = end - start
        self.row_start[row] = start
        self.row_end[row] = end
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        self.active[nid] -= 1
        if self.active[nid] == 0:           # outermost call of this name
            self.incl_s[nid] += dur
        if stack:
            stack[-1][1] += dur
        if failed and (not stack or self.layer[stack[-1][2]] != self.layer[nid]):
            self.errors[nid] += 1           # escaped the layer

    def _criterion_namer(self, args) -> int:
        # criterion 16 reruns criteria 1-2 through a nested verify_all; those
        # inner calls are not the top-level criteria
        if self.active[self._nid("acceptance.verify_all")] > 1:
            return self._nid("acceptance.nested_criterion")
        return self._nid(f"acceptance.c{args[0].number:02d}")

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                namer = Tracer._criterion_namer \
                    if (layer, attr) == ("acceptance", "run_criterion") else None
                self._undo.append(rebind(fn, self._wrap(fn, f"{layer}.{attr}",
                                                        namer)))
        handlers = importlib.import_module(f"{PACKAGE}.runner").CHECK_HANDLERS
        saved = dict(handlers)
        for check, fn in saved.items():
            handlers[check] = self._wrap(fn, f"runner.check.{check}")
        self._undo.append(lambda: handlers.update(saved))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------

    def _sum(self, column, names) -> float:
        return sum(column[self._ids[n]] for n in names if n in self._ids)

    def _sum_prefix(self, column, prefix: str) -> float:
        return sum(v for name, v in zip(self.names, column)
                   if name.startswith(prefix))

    def top_level_seconds(self) -> float:
        """Time covered by the window's outermost spans."""
        rows = slice(self.first_row, len(self.row_name))
        parent = np.frombuffer(self.row_parent, dtype=np.intc)[rows]
        start = np.frombuffer(self.row_start, dtype=np.float64)[rows]
        end = np.frombuffer(self.row_end, dtype=np.float64)[rows]
        top = parent == -1
        return float(np.sum(end[top] - start[top]))

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of the current window: name -> (value, unit)."""
        calls, incl, own = self.calls, self.incl_s, self.self_s
        c = self.counts
        conj = ("drivers.concave_conjugate", "drivers.convex_conjugate")
        sims = ("control.simulate_all_prefixes", "control.simulate_controlled")
        oracles = ("primal.brute_force_policy_value",
                   "primal.brute_force_weak_formulation")
        cert_evals = self._sum(calls, ["dual.dual_objective"])
        trials = c["dual.trials"]
        policies = c["primal.oracle_policies"]
        out = {
            "drivers.conjugate_calls": (self._sum(calls, conj), "count"),
            "drivers.conjugate_s": (self._sum(incl, conj), "s"),
            "bsde.solve_calls": (self._sum(calls, ["bsde.solve_bsde"]), "count"),
            "bsde.solve_s": (self._sum(incl, ["bsde.solve_bsde"]), "s"),
            "bsde.path_tree_calls": (
                self._sum(calls, ["bsde.solve_on_path_tree"]), "count"),
            "bsde.path_tree_leaves": (c["bsde.path_tree_leaves"], "count"),
            "bsde.path_tree_s": (
                self._sum(incl, ["bsde.solve_on_path_tree"]), "s"),
            "control.sim_calls": (self._sum(calls, sims), "count"),
            "control.sim_s": (self._sum(incl, sims), "s"),
            "primal.dp_calls": (
                self._sum(calls, ["primal.primal_value_dp"]), "count"),
            "primal.dp_states": (c["primal.dp_states"], "count"),
            "primal.dp_s": (self._sum(incl, ["primal.primal_value_dp"]), "s"),
            "primal.dpp_s": (self._sum(incl, ["primal.dpp_check"]), "s"),
            "primal.restriction_s": (
                self._sum(incl, ["primal.restriction_check"]), "s"),
            "primal.attainment_calls": (
                self._sum(calls, ["primal.attainment_check"]), "count"),
            "primal.attainment_prefixes": (c["primal.attainment_prefixes"],
                                           "count"),
            "primal.attainment_s": (
                self._sum(incl, ["primal.attainment_check"]), "s"),
            "primal.oracle_policies": (policies, "count"),
            "primal.oracle_candidates": (c["primal.oracle_candidates"], "count"),
            "primal.oracle_admissible_ratio": (
                c["primal.oracle_admissible"] / policies if policies else 0.0,
                "ratio"),
            "primal.oracle_s": (self._sum(incl, oracles), "s"),
            "dual.bound_calls": (self._sum(calls, ["dual.dual_bound"]), "count"),
            "dual.slope_evals": (self._sum(calls, ["dual.dual_value"]), "count"),
            "dual.trials": (trials, "count"),
            "dual.cert_evals": (cert_evals, "count"),
            "dual.infeasible_trials": (c["dual.infeasible_trials"], "count"),
            "dual.accepted_moves": (c["dual.accepted_moves"], "count"),
            "dual.accept_ratio": (
                c["dual.accepted_moves"] / trials if trials else 0.0, "ratio"),
            "dual.search_s": (
                self._sum(own, ["dual.dual_bound", "dual.dual_value"]), "s"),
            "dual.cert_eval_s": (self._sum(own, ["dual.dual_objective"]), "s"),
            "dual.cert_eval_us": (
                1e6 * self._sum(incl, ["dual.dual_objective"]) / cert_evals
                if cert_evals else 0.0, "us"),
            "runner.checks_s": (self._sum_prefix(incl, "runner.check."), "s"),
            "scenario.build_s": (
                self._sum(incl, ["scenario.build_scenario"]), "s"),
        }
        for k in self.criteria:
            out[f"acceptance.c{k:02d}_s"] = (
                self._sum(incl, [f"acceptance.c{k:02d}"]), "s")
        for layer in LAYERS:
            own_s = self._sum_prefix(own, layer + ".")
            out[f"{layer}.self_s"] = (own_s, "s")
            out[f"{layer}.share"] = (own_s / wall if wall > 0 else 0.0, "ratio")
            out[f"{layer}.errors"] = (self._sum_prefix(self.errors, layer + "."),
                                      "count")
        return out

    def spans_in_window(self) -> int:
        return len(self.row_name) - self.first_row

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.row_name, dtype=np.intc),
                 parent=np.frombuffer(self.row_parent, dtype=np.intc),
                 op=np.frombuffer(self.row_op, dtype=np.intc),
                 start=np.frombuffer(self.row_start, dtype=np.float64),
                 end=np.frombuffer(self.row_end, dtype=np.float64))
