"""Deterministic artifact writers: CSV tables, trajectories, JSON manifests.

All numbers are printed with 12 significant digits so reruns with identical
configuration diff byte-for-byte and regressions show up as real changes.
Those text artifacts are for reading; ``state.npz`` keeps the exact float64
run state that ``stackmfg export`` reloads.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grids import JointGrid, JointTable, build_grid
from .solver import EquilibriumGenerator
from .stage import SolverConfig, StageSweep


def fmt(x) -> str:
    """Canonical numeric formatting: 12 significant digits."""
    return f"{float(x):.12g}"


class Exact(dict):
    """A JSON mapping that ``json_ready`` passes through without rounding."""


def json_ready(obj):
    """Recursively convert to JSON-serializable values with canonical floats."""
    if isinstance(obj, Exact):
        return dict(obj)
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(fmt(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path, payload):
    Path(path).write_text(json.dumps(json_ready(payload), sort_keys=True, indent=1) + "\n")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _stage_points(generator, stages):
    """(stage label, entry of ``stages``, flat index, belief, mean field) per
    grid point; a stationary solve has the one stage "stationary"."""
    labels = ["stationary"] if generator.stationary else range(1, len(stages) + 1)
    for label, entry in zip(labels, stages):
        for flat in range(generator.joint.n_points):
            yield (str(label), entry, flat, *generator.joint.point(flat))


def values_csv(path, generator, spec):
    """All value tables of a solve, one row per (stage, point, side, state)."""
    header = ["stage", "side", "state"] \
        + [f"pi_{v}" for v in spec.leader_states] \
        + [f"z_{v}" for v in spec.follower_states] + ["value"]
    rows = []
    for label, (vf, vl), flat, pi, z in _stage_points(generator, generator.tables):
        coords = [fmt(v) for v in pi] + [fmt(v) for v in z]
        for side, states, table in (("follower", spec.follower_states, vf),
                                    ("leader", spec.leader_states, vl)):
            rows += [[label, side, x] + coords + [fmt(v)]
                     for x, v in zip(states, table.flat_values()[flat])]
    write_csv(path, header, rows)


def policy_csv(path, generator, spec):
    """Equilibrium prescriptions per (stage, grid point)."""
    header = ["stage"] \
        + [f"pi_{v}" for v in spec.leader_states] \
        + [f"z_{v}" for v in spec.follower_states] \
        + [f"gl_{x}_{a}" for x in spec.leader_states for a in spec.leader_actions] \
        + [f"gf_{x}_{a}" for x in spec.follower_states for a in spec.follower_actions]
    rows = []
    for label, sweep, flat, pi, z in _stage_points(generator, generator.stages):
        rows.append([label] + [fmt(v) for v in pi] + [fmt(v) for v in z]
                    + [fmt(v) for v in sweep.leader[flat].ravel()]
                    + [fmt(v) for v in sweep.follower[flat].ravel()])
    write_csv(path, header, rows)


def trajectory_csv(path, trajectory, spec):
    """One row per (step, branch): public state, prescriptions, rewards."""
    header = ["t", "branch", "weight"] \
        + [f"pi_{v}" for v in spec.leader_states] \
        + [f"z_{v}" for v in spec.follower_states] \
        + [f"al_{a}" for a in spec.leader_actions] \
        + [f"gl_{x}_{a}" for x in spec.leader_states for a in spec.leader_actions] \
        + [f"gf_{x}_{a}" for x in spec.follower_states for a in spec.follower_actions] \
        + ["leader_reward", "follower_reward"]
    rows = []
    for step in trajectory.steps:
        for b, (branch, gamma, marg) in enumerate(
                zip(step.branches, step.prescriptions, step.action_marginals)):
            rows.append(
                [str(step.t), str(b), fmt(branch.weight)]
                + [fmt(v) for v in branch.pi] + [fmt(v) for v in branch.z]
                + [fmt(v) for v in marg]
                + [fmt(v) for v in gamma.leader.ravel()]
                + [fmt(v) for v in gamma.follower.ravel()]
                + [fmt(step.leader_reward), fmt(step.follower_reward)])
    write_csv(path, header, rows)


def diagnostics_jsonl(path, generator):
    """Per-grid-point stage diagnostics as line-delimited JSON."""
    lines = []
    for label, sweep, flat, pi, z in _stage_points(generator, generator.stages):
        record = {"stage": label, "pi": [float(fmt(v)) for v in pi],
                  "z": [float(fmt(v)) for v in z], **sweep.diagnostic_fields(flat)}
        lines.append(json.dumps(json_ready(record), sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n")


def write_state(path, generator, game_config, config: SolverConfig):
    """Exact run state: game config, solver tolerances, value tables and prescriptions.

    ``follower_values``/``leader_values`` stack ``generator.tables`` (with the
    terminal zeros of a finite game); the prescription arrays are indexed
    (stage, flat grid point, type, action).
    """
    joint = generator.joint
    np.savez(
        path,
        config=json.dumps(game_config, sort_keys=True),
        stationary=generator.stationary,
        br_tol=config.br_tol, bayes_eps=config.bayes_eps,
        pi_resolution=joint.pi_grid.resolution,
        z_resolution=joint.z_grid.resolution,
        follower_values=np.stack([vf.values for vf, _ in generator.tables]),
        leader_values=np.stack([vl.values for _, vl in generator.tables]),
        leader_prescriptions=np.stack([sweep.leader for sweep in generator.stages]),
        follower_prescriptions=np.stack([sweep.follower for sweep in generator.stages]))


def read_state(path):
    """(game config, EquilibriumGenerator, SolverConfig) from ``write_state``'s file."""
    with np.load(path, allow_pickle=False) as state:
        config = json.loads(state["config"].item())
        stationary = bool(state["stationary"])
        solver_config = SolverConfig(br_tol=float(state["br_tol"]),
                                     bayes_eps=float(state["bayes_eps"]))
        pi_res, z_res = int(state["pi_resolution"]), int(state["z_resolution"])
        vf_all, vl_all = state["follower_values"], state["leader_values"]
        gl_all, gf_all = state["leader_prescriptions"], state["follower_prescriptions"]
    joint = JointGrid(pi_grid=build_grid(vl_all.shape[-1], pi_res),
                      z_grid=build_grid(vf_all.shape[-1], z_res))
    tables = [(JointTable(joint, vf), JointTable(joint, vl))
              for vf, vl in zip(vf_all, vl_all)]
    # tables[k] holds the values of stage k+1; a finite game's terminal
    # zeros have no stage and drop out of the zip.
    stages = [StageSweep(leader=gl, follower=gf, follower_values=vf.flat_values(),
                         leader_values=vl.flat_values())
              for (vf, vl), gl, gf in zip(tables, gl_all, gf_all)]
    return config, EquilibriumGenerator(joint=joint, stages=stages, stationary=stationary,
                                        tables=tables), solver_config
