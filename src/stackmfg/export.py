"""Deterministic artifact writers: CSV tables, trajectories, JSON manifests.

All numbers are printed with 12 significant digits so reruns with identical
configuration diff byte-for-byte and regressions show up as real changes.
Those text artifacts are for reading; ``state.npz`` keeps the exact float64
run state that ``stackmfg export`` reloads.
"""

from __future__ import annotations

import json
from itertools import count
from pathlib import Path
from struct import pack
from zipfile import BadZipFile

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
    Path(path).write_text("\n".join([",".join(header), *rows]) + "\n")


def _labels(generator):
    """Stage labels: "stationary", or 1, 2, ... for as many stages as they are zipped with."""
    return ["stationary"] if generator.stationary else map(str, count(1))


def _coords(joint: JointGrid):
    """The "pi..., z..." text of each grid point, in flat order."""
    points = [np.concatenate(joint.point(flat)).tolist() for flat in range(joint.n_points)]
    return [",".join(["%.12g"] * len(p)) % tuple(p) for p in points]


def _value_arrays(generator):
    """Every stage's flat (V^f, V^l), stacked, then a finite game's terminal zeros."""
    vf = np.stack([sweep.follower_values for sweep in generator.stages])
    vl = np.stack([sweep.leader_values for sweep in generator.stages])
    if not generator.stationary:
        vf, vl = (np.concatenate([v, np.zeros_like(v[:1])]) for v in (vf, vl))
    return vf, vl


def values_csv(path, generator, spec):
    """All value tables of a solve, one row per (stage, point, side, state)."""
    header = ["stage", "side", "state"] \
        + [f"pi_{v}" for v in spec.leader_states] \
        + [f"z_{v}" for v in spec.follower_states] + ["value"]
    coords = _coords(generator.joint)
    sides = [f"follower,{x}" for x in spec.follower_states] \
        + [f"leader,{x}" for x in spec.leader_states]
    rows = []
    for label, vf, vl in zip(_labels(generator), *_value_arrays(generator)):
        rows += ["%s,%s,%s,%.12g" % (label, side, xy, v) for xy, values
                 in zip(coords, np.hstack([vf, vl]).tolist()) for side, v in zip(sides, values)]
    write_csv(path, header, rows)


def policy_csv(path, generator, spec):
    """Equilibrium prescriptions per (stage, grid point)."""
    header = ["stage"] \
        + [f"pi_{v}" for v in spec.leader_states] \
        + [f"z_{v}" for v in spec.follower_states] \
        + [f"gl_{x}_{a}" for x in spec.leader_states for a in spec.leader_actions] \
        + [f"gf_{x}_{a}" for x in spec.follower_states for a in spec.follower_actions]
    coords = _coords(generator.joint)
    rows = []
    for label, sweep in zip(_labels(generator), generator.stages):
        gammas = np.hstack([sweep.leader.reshape(len(coords), -1),
                            sweep.follower.reshape(len(coords), -1)])
        row = "%s,%s" + ",%.12g" * gammas.shape[1]
        rows += [row % (label, xy, *g) for xy, g in zip(coords, gammas.tolist())]
    write_csv(path, header, rows)


def trajectory_csv(path, trajectory, spec):
    """One row per (step, branch): public state, prescriptions, rewards.

    The text after "t,branch," is formatted once per distinct row, keyed by
    the exact bits of its numbers, so the repeated steps of a settled path
    reuse it."""
    header = ["t", "branch", "weight"] \
        + [f"pi_{v}" for v in spec.leader_states] \
        + [f"z_{v}" for v in spec.follower_states] \
        + [f"al_{a}" for a in spec.leader_actions] \
        + [f"gl_{x}_{a}" for x in spec.leader_states for a in spec.leader_actions] \
        + [f"gf_{x}_{a}" for x in spec.follower_states for a in spec.follower_actions] \
        + ["leader_reward", "follower_reward"]
    row = ",%.12g" * (len(header) - 2)
    texts = {}
    rows = []
    for step in trajectory.steps:
        for b, (branch, gamma, marg) in enumerate(
                zip(step.branches, step.prescriptions, step.action_marginals)):
            key = (pack("3d", branch.weight, step.leader_reward, step.follower_reward),
                   branch.pi.tobytes(), branch.z.tobytes(), marg.tobytes(),
                   gamma.leader.tobytes(), gamma.follower.tobytes())
            text = texts.get(key)
            if text is None:
                # Python floats: % formats them several times faster than numpy scalars.
                text = texts[key] = row % (
                    branch.weight, *branch.pi.tolist(), *branch.z.tolist(), *marg.tolist(),
                    *gamma.leader.ravel().tolist(), *gamma.follower.ravel().tolist(),
                    step.leader_reward, step.follower_reward)
            rows.append("%d,%d%s" % (step.t, b, text))
    write_csv(path, header, rows)


def diagnostics_jsonl(path, generator):
    """Per-grid-point stage diagnostics as line-delimited JSON."""
    joint = generator.joint
    coords = [{"pi": [float(fmt(v)) for v in pi], "z": [float(fmt(v)) for v in z]}
              for pi, z in map(joint.point, range(joint.n_points))]
    lines = [json.dumps({"stage": label, **xy, **fields}, sort_keys=True)
             for label, sweep in zip(_labels(generator), generator.stages)
             for xy, fields in zip(coords, sweep.diagnostic_rows())]
    Path(path).write_text("\n".join(lines) + "\n")


def write_state(path, generator, game_config, config: SolverConfig):
    """Exact run state: game config, solver tolerances, value tables and prescriptions.

    ``follower_values``/``leader_values`` reshape ``_value_arrays`` (with the
    terminal zeros of a finite game) to (stage, belief, mean field, type); the
    prescription arrays are indexed (stage, flat grid point, type, action).
    """
    joint = generator.joint
    vf, vl = _value_arrays(generator)
    shape = (len(vf), joint.pi_grid.n_points, joint.z_grid.n_points, -1)
    np.savez(
        path,
        config=json.dumps(game_config, sort_keys=True),
        stationary=generator.stationary,
        br_tol=config.br_tol, bayes_eps=config.bayes_eps,
        pi_resolution=joint.pi_grid.resolution,
        z_resolution=joint.z_grid.resolution,
        follower_values=vf.reshape(shape),
        leader_values=vl.reshape(shape),
        leader_prescriptions=np.stack([sweep.leader for sweep in generator.stages]),
        follower_prescriptions=np.stack([sweep.follower for sweep in generator.stages]))


def read_state(path):
    """(game config, EquilibriumGenerator, SolverConfig) from ``write_state``'s file.

    A file that is missing or damaged raises one ValueError naming its run
    directory.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as state:
            config = json.loads(state["config"].item())
            stationary = bool(state["stationary"])
            solver_config = SolverConfig(br_tol=float(state["br_tol"]),
                                         bayes_eps=float(state["bayes_eps"]))
            pi_res, z_res = int(state["pi_resolution"]), int(state["z_resolution"])
            vf_all, vl_all = state["follower_values"], state["leader_values"]
            gl_all, gf_all = state["leader_prescriptions"], state["follower_prescriptions"]
    except (OSError, KeyError, EOFError, ValueError, BadZipFile) as exc:
        raise ValueError(f"no complete state.npz under {path.parent} ({exc}); "
                         "re-run `stackmfg solve` to write it") from exc
    joint = JointGrid(pi_grid=build_grid(vl_all.shape[-1], pi_res),
                      z_grid=build_grid(vf_all.shape[-1], z_res))
    tables = [(JointTable(joint, vf), JointTable(joint, vl))
              for vf, vl in zip(vf_all, vl_all)]
    # tables[k] holds the values of stage k+1; a finite game's terminal
    # zeros have no stage and drop out of the zip.
    stages = [StageSweep(leader=gl, follower=gf, follower_values=vf.flat_values(),
                         leader_values=vl.flat_values())
              for (vf, vl), gl, gf in zip(tables, gl_all, gf_all)]
    return config, EquilibriumGenerator(joint=joint, stages=stages,
                                        stationary=stationary), solver_config
