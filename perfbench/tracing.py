"""Spans around the public functions at each stackmfg layer boundary.

The tracer wraps functions from outside the program: it replaces each
target in its defining module and in every ``stackmfg`` module that bound
it with ``from ... import`` (including tuples held in module-level dicts,
such as the built-in game registry), so calls made through any of those
names are timed.  A target missing from the code under test is recorded as
absent instead of raising.  Spans are kept in memory as (name, start, end,
parent, operation) and written out once, when the run ends.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("game", "gamefile", "games", "grids", "dynamics", "stage", "solver",
          "reference", "oracle", "export", "cli")

# (layer, module, attribute, group).  The group names a set of functions
# whose calls and time the per-layer metrics report together.
TARGETS = (
    ("game", "stackmfg.game", "GameSpec.follower_kernel_tensor", "game.tensor"),
    ("game", "stackmfg.game", "GameSpec.leader_kernel_tensor", "game.tensor"),
    ("game", "stackmfg.game", "GameSpec.follower_reward_tensor", "game.tensor"),
    ("game", "stackmfg.game", "validate", "game.validate"),
    ("game", "stackmfg.game", "spec_hash", "game.spec_hash"),
    ("gamefile", "stackmfg.gamefile", "load_game_dict", "gamefile.load"),
    ("gamefile", "stackmfg.gamefile", "load_game_file", "gamefile.load"),
    ("games", "stackmfg.games", "build_infection_game", None),
    ("games", "stackmfg.games", "build_tech_adoption_game", None),
    ("games", "stackmfg.games", "build_game", None),
    ("grids", "stackmfg.grids", "build_grid", None),
    ("grids", "stackmfg.grids", "simplex_weights", "grids.stencil"),
    ("grids", "stackmfg.grids", "joint_weights", "grids.stencil"),
    ("dynamics", "stackmfg.dynamics", "mean_field_step", "dynamics.mean_field"),
    ("dynamics", "stackmfg.dynamics", "belief_step", "dynamics.bayes"),
    ("dynamics", "stackmfg.dynamics", "belief_step_total", "dynamics.bayes"),
    ("stage", "stackmfg.stage", "StagePointSolver.__init__", None),
    ("stage", "stackmfg.stage", "StagePointSolver.solve", "stage.solve"),
    ("stage", "stackmfg.stage", "leader_optimize", "stage.solve"),
    ("solver", "stackmfg.solver", "_run_map", None),
    ("solver", "stackmfg.solver", "backward_pass", "solver.backward"),
    ("solver", "stackmfg.solver", "solve_stationary", "solver.stationary"),
    ("solver", "stackmfg.solver", "forward_pass", "solver.forward"),
    ("reference", "stackmfg.reference", "backward_finite", "reference.backward"),
    ("oracle", "stackmfg.oracle", "enumerate_smfe", "oracle.smfe"),
    ("oracle", "stackmfg.oracle", "evaluate_profile", "oracle.profile"),
    ("oracle", "stackmfg.oracle", "oracle_report", None),
    ("oracle", "stackmfg.oracle", "profile_from_generator", None),
    ("export", "stackmfg.export", "write_json", "export.file"),
    ("export", "stackmfg.export", "write_csv", "export.file"),
    ("export", "stackmfg.export", "values_csv", "export.file"),
    ("export", "stackmfg.export", "policy_csv", "export.file"),
    ("export", "stackmfg.export", "trajectory_csv", "export.file"),
    ("export", "stackmfg.export", "diagnostics_jsonl", "export.file"),
    ("cli", "stackmfg.cli", "main", None),
    ("cli", "stackmfg.cli", "run", None),
    ("cli", "stackmfg.cli", "cmd_export", None),
    ("cli", "stackmfg.cli", "cmd_oracle", None),
    ("cli", "stackmfg.cli", "build_spec", None),
)

# Per-layer metrics: name -> (unit, better).  Counts and "_s" times are per
# measured operation, except game.validate_s, game.spec_hash_s and
# gamefile.load_s, which are per set-up.  Layers that run on only some
# workloads report time as a share of operation time (share.<layer>, self
# time over operation wall time), so no time metric is identically zero.
PER_LAYER = {
    "game.tensor_calls": ("count", "lower"), "game.tensor_s": ("s", "lower"),
    "game.validate_s": ("s", "lower"), "game.spec_hash_s": ("s", "lower"),
    "gamefile.load_s": ("s", "lower"),
    "grids.stencil_calls": ("count", "lower"), "grids.stencil_s": ("s", "lower"),
    "dynamics.mean_field_calls": ("count", "lower"),
    "dynamics.bayes_calls": ("count", "lower"),
    "dynamics.bayes_fallbacks": ("count", "lower"), "dynamics.s": ("s", "lower"),
    "stage.point_solves": ("count", "lower"), "stage.self_s": ("s", "lower"),
    "stage.pairs_evaluated": ("count", "lower"), "stage.fixed_points": ("count", "lower"),
    "stage.fixed_point_ratio": ("ratio", "higher"), "stage.ties": ("count", "lower"),
    "stage.damped_fallbacks": ("count", "lower"),
    "solver.sweeps": ("count", "lower"), "solver.self_s": ("s", "lower"),
    "solver.forward_steps": ("count", "lower"),
    "solver.offgrid_resolves": ("count", "lower"),
    "solver.max_branches": ("count", "lower"), "solver.lost_weight": ("ratio", "lower"),
    "solver.forward_share": ("ratio", "lower"),
    "reference.sweeps": ("count", "lower"),
    "oracle.profiles": ("count", "lower"), "oracle.smfe": ("count", "higher"),
    "export.files": ("count", "lower"), "export.bytes": ("B", "lower"),
    "export.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    **{f"share.{layer}": ("ratio", "lower") for layer in LAYERS},
    "share.harness": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"), "trace.spans": ("count", "lower"),
    "trace.ops": ("count", "higher"),
}


def rebind(original, replacement) -> list:
    """Replace ``original`` wherever a ``stackmfg`` module holds it.

    Covers module attributes, including names bound by ``from ... import``,
    and tuples stored as values of module-level dicts.  Returns the undo
    records that ``restore`` takes.
    """
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "stackmfg"
                                  or module_name.startswith("stackmfg.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, value))
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if isinstance(v, tuple) and any(x is original for x in v):
                        undo.append((value, k, v))
                        value[k] = tuple(replacement if x is original else x for x in v)
    return undo


def restore(undo):
    """Put back what ``rebind`` replaced; also takes (object, attribute, old) records."""
    for container, key, old in reversed(undo):
        if isinstance(container, dict):
            container[key] = old
        else:
            setattr(container, key, old)


class Tracer:
    """Records spans and result-derived counters for one benchmark run."""

    def __init__(self):
        self.names = []                 # span name table
        self.name_layer = []            # layer index per name
        self.name_group = []            # group per name, or None
        self.span_name = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_nested = array("b")   # 1 when an ancestor span has the same group
        self.ops = []                   # (phase, start, end) per operation id
        self.op = -1
        self.phase = None
        self.counters = defaultdict(float)
        self.max_branches = 0
        self.absent = []
        self._stack = []
        self._depth = defaultdict(int)  # open spans per group
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every present target; record the missing ones as absent."""
        self.absent = []
        for layer, module_name, attr, group in TARGETS:
            module = sys.modules.get(module_name)
            owner, _, name = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = holder.__dict__.get(name) if holder is not None else None
            full = f"{module_name}.{attr}"
            if original is None:
                self.absent.append(full)
                continue
            if full not in self.names:
                self.names.append(full)
                self.name_layer.append(LAYERS.index(layer))
                self.name_group.append(group)
            wrapper = self._wrap(self.names.index(full), original)
            if owner:
                self._undo.append((holder, name, original))
                setattr(holder, name, wrapper)
            else:
                self._undo.extend(rebind(original, wrapper))

    def uninstall(self):
        restore(self._undo)
        self._undo = []

    def _wrap(self, name_id, original):
        tracer = self
        group = self.name_group[name_id]

        def wrapper(*args, **kwargs):
            depth = tracer._depth
            nested = group is not None and depth[group] > 0
            idx = len(tracer.span_t0)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_nested.append(nested)
            tracer.span_t1.append(0.0)
            tracer._stack.append(idx)
            depth[group] += 1
            tracer.span_t0.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.span_t1[idx] = perf_counter()
                depth[group] -= 1
                tracer._stack.pop()
            if not nested:
                tracer._count(group, result, args)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(original, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    # -- counters from public return values ------------------------------

    def _count(self, group, result, args):
        if group is None:
            return
        c = self.counters
        phase = self.phase
        c[(phase, group + ".calls")] += 1
        if group == "stage.solve":
            d = result.diagnostics
            c[(phase, "stage.pairs_evaluated")] += d.n_leader_candidates * d.n_follower_candidates
            c[(phase, "stage.fixed_points")] += sum(d.br_set_sizes)
            c[(phase, "stage.ties")] += d.tie_events
            c[(phase, "stage.damped_fallbacks")] += bool(d.used_damped_fallback)
        elif group == "dynamics.bayes" and isinstance(result, tuple):
            c[(phase, "dynamics.bayes_fallbacks")] += bool(result[1])
        elif group == "solver.stationary":
            c[(phase, "solver.sweeps")] += result[2].iterations
        elif group == "solver.backward":
            c[(phase, "solver.sweeps")] += len(result[0].stages)
        elif group == "solver.forward":
            c[(phase, "solver.forward_steps")] += len(result.steps)
            c[(phase, "solver.offgrid_resolves")] += result.offgrid_lookups
            c[(phase, "solver.lost_weight")] += result.lost_weight
            self.max_branches = max([self.max_branches]
                                    + [len(step.branches) for step in result.steps])
        elif group == "reference.backward":
            c[(phase, "reference.sweeps")] += len(result[2])
        elif group == "oracle.smfe":
            c[(phase, "oracle.smfe")] += len(result)
        elif group == "export.file" and args:
            c[(phase, "export.bytes")] += os.path.getsize(args[0])

    # -- operations -------------------------------------------------------

    def begin(self, phase):
        self.phase = phase
        self.op = len(self.ops)
        self.ops.append([phase, perf_counter(), 0.0])

    def end(self):
        self.ops[self.op][2] = perf_counter()
        self.op = -1
        self.phase = None

    # -- results ----------------------------------------------------------

    def _aggregate(self):
        """Per phase: self time per layer, inclusive time and calls per group."""
        n = len(self.span_t0)
        t0 = np.frombuffer(self.span_t0, dtype=np.float64, count=n)
        t1 = np.frombuffer(self.span_t1, dtype=np.float64, count=n)
        parent = np.frombuffer(self.span_parent, dtype=np.int64, count=n)
        dur = t1 - t0
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        name = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        op = np.frombuffer(self.span_op, dtype=np.int32, count=n)
        nested = np.frombuffer(self.span_nested, dtype=np.int8, count=n).astype(bool)
        layer = np.asarray(self.name_layer, dtype=np.int64)[name] if n else np.zeros(0, int)
        phases = np.asarray([p for p, _, _ in self.ops] + [None], dtype=object)[op]

        out = defaultdict(float)
        for ph in ("setup", "op"):
            sel = phases == ph
            for li, lname in enumerate(LAYERS):
                out[(ph, f"layer.{lname}")] = float(self_time[sel & (layer == li)].sum())
            out[(ph, "roots")] = float(dur[sel & ~has_parent].sum())
            out[(ph, "spans")] = float(sel.sum())
            for ni, group in enumerate(self.name_group):
                if group is None:
                    continue
                m = sel & (name == ni) & ~nested
                out[(ph, group + ".s")] += float(dur[m].sum())
        return out

    def metrics(self, overhead: float) -> dict:
        """Every per-layer metric for the traced phases of this run."""
        agg = self._aggregate()
        c = self.counters
        op_time = sum(e - s for p, s, e in self.ops if p == "op")
        n_ops = max(1, sum(1 for p, _, _ in self.ops if p == "op"))
        n_setup = max(1, sum(1 for p, _, _ in self.ops if p == "setup"))

        def per_op(key):
            return c[("op", key)] / n_ops

        pairs = c[("op", "stage.pairs_evaluated")]
        values = {
            "game.tensor_calls": per_op("game.tensor.calls"),
            "game.tensor_s": agg[("op", "game.tensor.s")] / n_ops,
            "game.validate_s": agg[("setup", "game.validate.s")] / n_setup,
            "game.spec_hash_s": agg[("setup", "game.spec_hash.s")] / n_setup,
            "gamefile.load_s": agg[("setup", "gamefile.load.s")] / n_setup,
            "grids.stencil_calls": per_op("grids.stencil.calls"),
            "grids.stencil_s": agg[("op", "grids.stencil.s")] / n_ops,
            "dynamics.mean_field_calls": per_op("dynamics.mean_field.calls"),
            "dynamics.bayes_calls": per_op("dynamics.bayes.calls"),
            "dynamics.bayes_fallbacks": per_op("dynamics.bayes_fallbacks"),
            "dynamics.s": agg[("op", "layer.dynamics")] / n_ops,
            "stage.point_solves": per_op("stage.solve.calls"),
            "stage.self_s": agg[("op", "layer.stage")] / n_ops,
            "stage.pairs_evaluated": per_op("stage.pairs_evaluated"),
            "stage.fixed_points": per_op("stage.fixed_points"),
            "stage.fixed_point_ratio": (c[("op", "stage.fixed_points")] / pairs
                                        if pairs else 0.0),
            "stage.ties": per_op("stage.ties"),
            "stage.damped_fallbacks": per_op("stage.damped_fallbacks"),
            "solver.sweeps": per_op("solver.sweeps"),
            "solver.self_s": agg[("op", "layer.solver")] / n_ops,
            "solver.forward_steps": per_op("solver.forward_steps"),
            "solver.offgrid_resolves": per_op("solver.offgrid_resolves"),
            "solver.max_branches": float(self.max_branches),
            "solver.lost_weight": per_op("solver.lost_weight"),
            "solver.forward_share": agg[("op", "solver.forward.s")] / op_time,
            "reference.sweeps": per_op("reference.sweeps"),
            "oracle.profiles": per_op("oracle.profile.calls"),
            "oracle.smfe": per_op("oracle.smfe"),
            "export.files": per_op("export.file.calls"),
            "export.bytes": per_op("export.bytes"),
            "export.s": agg[("op", "layer.export")] / n_ops,
            "cli.self_s": agg[("op", "layer.cli")] / n_ops,
            "share.harness": (op_time - agg[("op", "roots")]) / op_time,
            "trace.overhead": overhead,
            "trace.spans": agg[("op", "spans")] / n_ops,
            "trace.ops": float(n_ops),
        }
        for lname in LAYERS:
            values[f"share.{lname}"] = agg[("op", f"layer.{lname}")] / op_time
        return {k: {"value": values[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}

    def write(self, path):
        """Write every recorded span and operation to an .npz file."""
        n = len(self.span_t0)
        np.savez(path,
                 names=np.asarray(self.names),
                 name_layer=np.asarray([LAYERS[i] for i in self.name_layer]),
                 span_name=np.frombuffer(self.span_name, dtype=np.int32, count=n),
                 span_start=np.frombuffer(self.span_t0, dtype=np.float64, count=n),
                 span_end=np.frombuffer(self.span_t1, dtype=np.float64, count=n),
                 span_parent=np.frombuffer(self.span_parent, dtype=np.int64, count=n),
                 span_op=np.frombuffer(self.span_op, dtype=np.int32, count=n),
                 op_phase=np.asarray([p for p, _, _ in self.ops]),
                 op_start=np.asarray([s for _, s, _ in self.ops]),
                 op_end=np.asarray([e for _, _, e in self.ops]),
                 absent=np.asarray(self.absent))
