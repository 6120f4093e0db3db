"""Reference recursion for games whose leader has a single private state.

When the leader carries no private information the public belief is
degenerate and drops out: value tables live on the mean-field simplex alone,
the leader prescription is an unconditional action distribution, and the
Bayes update disappears.  This module codes that reduced recursion directly,
without reusing the stage solver, so the two paths can be cross-checked on
any single-leader-state game.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .errors import NoEquilibriumError, NonConvergenceError
from .game import GameSpec
from .grids import SimplexGrid, simplex_weights


def _require_single_leader_state(spec: GameSpec):
    if spec.n_leader_states != 1:
        raise ValueError("reference recursion applies only when the leader "
                         "has a single private state")


class _ZTable:
    """Values over the mean-field grid alone."""

    def __init__(self, grid: SimplexGrid, values: np.ndarray):
        self.grid = grid
        self.values = np.asarray(values, dtype=np.float64)


def _pairs_at(spec: GameSpec, z, stencils: dict):
    """The table-independent data of every (a^l, pure follower map) pair at
    one mean field, in enumeration order: a^l, the map, the follower reward
    (n_f, n_af) and kernel rows (n_f, n_af, n_f) under a^l, the leader
    reward against the map, and the next mean field's number in ``stencils``."""
    n_f, n_af = spec.n_follower_states, spec.n_follower_actions
    z = np.asarray(z, dtype=np.float64)
    maps = list(itertools.product(range(n_af), repeat=n_f))
    qf, rf = spec.follower_kernel(z)[0], spec.follower_reward(z)[0]
    rl = spec.leader_reward(z, np.array([np.eye(n_af)[list(bf)] for bf in maps]))[:, 0]
    out = []
    for al in range(spec.n_leader_actions):
        for m, bf in enumerate(maps):
            z_next = np.zeros(n_f)
            for xf in range(n_f):
                z_next += z[xf] * qf[xf, al, bf[xf]]
            z_next = np.clip(z_next, 0.0, None)
            z_next = z_next / z_next.sum()
            s = stencils.setdefault(z_next.tobytes(), len(stencils)) if spec.discount else None
            out.append((al, bf, rf[:, al], qf[:, al], float(rl[m, al]), s))
    return out


def _start(spec: GameSpec, grid: SimplexGrid):
    """Once per call: the pairs of every grid point, one ``simplex_weights``
    stencil per next mean field of distinct exact bytes, and zero tables."""
    stencils = {}
    pairs = [_pairs_at(spec, z, stencils) for z in grid.points]
    return (pairs, [simplex_weights(grid, np.frombuffer(key)) for key in stencils],
            _ZTable(grid, np.zeros((grid.n_points, spec.n_follower_states))),
            _ZTable(grid, np.zeros((grid.n_points, 1))))


def _stage_at(pairs, z, delta: float, vf_next, vl_next, br_tol: float = 1e-9):
    """One stage solve at a single mean field; returns values and prescription.

    Enumerates leader actions and pure follower maps (``pairs``); a follower
    map is a fixed point if each type's played action attains the row
    maximum of the expected reward-to-go computed with the next mean field
    induced by the map itself.  ``vf_next``/``vl_next`` go by stencil number.
    """
    best = None     # (value, al, bf, obj)
    for al, bf, reward, kernel, lead, s in pairs:
        n_f = len(bf)
        vf_interp = vf_next[s] if delta != 0.0 else np.zeros(n_f)
        # (1, n_f) @ (n_f, 1) per entry: the dot product of each kernel row
        obj = reward + delta * np.matmul(kernel[..., None, :], vf_interp[:, None])[..., 0, 0]
        if np.any(obj[np.arange(n_f), bf] < obj.max(axis=1) - br_tol):
            continue
        if delta != 0.0:
            lead += delta * vl_next[s]
        if best is None or lead > best[0]:
            best = (lead, al, bf, obj)
    if best is None:
        raise NoEquilibriumError("no stage fixed point", pi=np.array([1.0]), z=z)
    lead, al, bf, obj = best
    return obj[np.arange(len(bf)), bf], lead, (al, bf)


def _sweep(spec, grid, pairs, stencils, vf, vl, br_tol):
    new_f = np.zeros_like(vf.values)
    new_l = np.zeros_like(vl.values)
    policy = []
    vf_next = [w @ vf.values[idx, :] for idx, w in stencils]
    vl_next = [float(w @ vl.values[idx, 0]) for idx, w in stencils]
    for i in range(grid.n_points):
        vf_row, lead, choice = _stage_at(pairs[i], grid.points[i], spec.discount,
                                         vf_next, vl_next, br_tol)
        new_f[i, :] = vf_row
        new_l[i, 0] = lead
        policy.append(choice)
    return _ZTable(grid, new_f), _ZTable(grid, new_l), policy


def backward_finite(spec: GameSpec, grid: SimplexGrid, horizon: Optional[int] = None,
                    br_tol: float = 1e-9):
    """Finite-horizon reduced recursion.

    Returns (follower tables, leader tables, policies), each a list indexed
    so that entry k belongs to stage k+1 and the terminal entry is zero.
    Follower tables have shape (n_grid, n_follower_states); leader tables
    (n_grid, 1).
    """
    _require_single_leader_state(spec)
    T = horizon if horizon is not None else spec.horizon
    if T is None:
        raise ValueError("horizon required")
    pairs, stencils, vf, vl = _start(spec, grid)
    f_tables = [None] * (T + 1)
    l_tables = [None] * (T + 1)
    policies = [None] * T
    f_tables[T], l_tables[T] = vf, vl
    for t in range(T, 0, -1):
        vf, vl, policy = _sweep(spec, grid, pairs, stencils, vf, vl, br_tol)
        f_tables[t - 1], l_tables[t - 1] = vf, vl
        policies[t - 1] = policy
    return f_tables, l_tables, policies


def value_iteration(spec: GameSpec, grid: SimplexGrid, tol: float = 1e-6,
                    max_iter: int = 2000, n_iters: Optional[int] = None,
                    br_tol: float = 1e-9):
    """Stationary reduced recursion by value iteration.

    With ``n_iters`` set, runs exactly that many sweeps from zero tables
    (useful for lockstep comparisons); otherwise iterates to ``tol``.
    Returns (follower table, leader table, policy, deltas).
    """
    _require_single_leader_state(spec)
    pairs, stencils, vf, vl = _start(spec, grid)
    deltas = []
    policy = None
    limit = n_iters if n_iters is not None else max_iter
    for _ in range(limit):
        new_f, new_l, policy = _sweep(spec, grid, pairs, stencils, vf, vl, br_tol)
        delta = max(float(np.max(np.abs(new_f.values - vf.values))),
                    float(np.max(np.abs(new_l.values - vl.values))))
        deltas.append(delta)
        vf, vl = new_f, new_l
        if n_iters is None and delta < tol:
            return vf, vl, policy, deltas
    if n_iters is not None:
        return vf, vl, policy, deltas
    raise NonConvergenceError(
        f"reference value iteration did not reach {tol:g} in {max_iter} sweeps",
        deltas=deltas)
