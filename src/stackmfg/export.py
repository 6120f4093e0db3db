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

from .dynamics import Prescription
from .grids import JointGrid, JointTable, build_grid
from .solver import EquilibriumGenerator, StagePolicy
from .stage import SolverConfig, StageDiagnostics, StageSolution


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


def _joint_tables_rows(tables, spec, joint, stage):
    vf, vl = tables
    rows = []
    for i in range(joint.pi_grid.n_points):
        for j in range(joint.z_grid.n_points):
            coords = [fmt(v) for v in joint.pi_grid.points[i]] \
                + [fmt(v) for v in joint.z_grid.points[j]]
            for s, lab in enumerate(spec.follower_states):
                rows.append([str(stage), "follower", lab] + coords + [fmt(vf.values[i, j, s])])
            for s, lab in enumerate(spec.leader_states):
                rows.append([str(stage), "leader", lab] + coords + [fmt(vl.values[i, j, s])])
    return rows


def values_csv(path, generator, spec):
    """All value tables of a solve, one row per (stage, side, state, point)."""
    joint = generator.joint
    header = ["stage", "side", "state"] \
        + [f"pi_{v}" for v in spec.leader_states] \
        + [f"z_{v}" for v in spec.follower_states] + ["value"]
    rows = []
    if generator.stationary:
        rows.extend(_joint_tables_rows(generator.tables[0], spec, joint, "stationary"))
    else:
        for k, tables in enumerate(generator.tables):
            rows.extend(_joint_tables_rows(tables, spec, joint, k + 1))
    write_csv(path, header, rows)


def policy_csv(path, generator, spec):
    """Equilibrium prescriptions per (stage, grid point)."""
    joint = generator.joint
    header = ["stage"] \
        + [f"pi_{v}" for v in spec.leader_states] \
        + [f"z_{v}" for v in spec.follower_states] \
        + [f"gl_{x}_{a}" for x in spec.leader_states for a in spec.leader_actions] \
        + [f"gf_{x}_{a}" for x in spec.follower_states for a in spec.follower_actions]
    rows = []
    stages = ["stationary"] if generator.stationary else \
        [str(t + 1) for t in range(len(generator.stages))]
    for stage_label, policy in zip(stages, generator.stages):
        for flat in range(joint.n_points):
            sol = policy.solution(flat)
            pi, z = joint.point(flat)
            row = [stage_label] + [fmt(v) for v in pi] + [fmt(v) for v in z]
            if sol is None:
                row += ["nan"] * (spec.n_leader_states * spec.n_leader_actions
                                  + spec.n_follower_states * spec.n_follower_actions)
            else:
                row += [fmt(v) for v in sol.prescription.leader.ravel()]
                row += [fmt(v) for v in sol.prescription.follower.ravel()]
            rows.append(row)
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
    stages = ["stationary"] if generator.stationary else \
        [str(t + 1) for t in range(len(generator.stages))]
    for stage_label, policy in zip(stages, generator.stages):
        for flat in range(generator.joint.n_points):
            sol = policy.solution(flat)
            pi, z = generator.joint.point(flat)
            record = {"stage": stage_label,
                      "pi": [float(fmt(v)) for v in pi],
                      "z": [float(fmt(v)) for v in z]}
            if sol is None:
                record["unsolved"] = True
            else:
                record.update(sol.diagnostics.to_dict())
            lines.append(json.dumps(json_ready(record), sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n")


def write_state(path, generator, game_config, config: SolverConfig):
    """Exact run state: game config, solver tolerances, value tables and prescriptions.

    ``follower_values``/``leader_values`` stack ``generator.tables`` (with the
    terminal zeros of a finite game); the prescription arrays are indexed
    (stage, flat grid point, type, action).  Every grid point must be solved.
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
        leader_prescriptions=np.array([[sol.prescription.leader for sol in policy.solutions]
                                       for policy in generator.stages]),
        follower_prescriptions=np.array([[sol.prescription.follower for sol in policy.solutions]
                                         for policy in generator.stages]))


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
    stages = []
    # tables[k] holds the values of stage k+1; a finite game's terminal
    # zeros have no stage and drop out of the zip.
    for (vf, vl), gl_stage, gf_stage in zip(tables, gl_all, gf_all):
        vf_flat, vl_flat = vf.flat_values(), vl.flat_values()
        stages.append(StagePolicy(joint, [
            StageSolution(prescription=Prescription(leader=gl, follower=gf),
                          follower_values=vf_flat[flat].copy(),
                          leader_values=vl_flat[flat].copy(),
                          diagnostics=StageDiagnostics())
            for flat, (gl, gf) in enumerate(zip(gl_stage, gf_stage))]))
    return config, EquilibriumGenerator(joint=joint, stages=stages, stationary=stationary,
                                        tables=tables), solver_config
