"""Reference recursion for games whose leader has a single private state.

When the leader carries no private information the public belief is
degenerate and drops out: value tables live on the mean-field simplex alone,
the leader prescription is an unconditional action distribution, and the
Bayes update disappears.  This module codes that reduced recursion directly,
without reusing the stage solver, so the two paths can be cross-checked on
any single-leader-state game.

Each stage is one array pass over every (grid point x leader action x pure
follower map) pair.  Every sum keeps the shape a per-pair loop gives it (the
next mean field accumulated type by type, one (1, n_f) @ (n_f, 1) product
per kernel row, one stencil product per distinct next mean field), so the
tables and policies are bit for bit those of that loop.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .errors import NoEquilibriumError, NonConvergenceError
from .game import SELECTION_TOL, GameSpec
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


def _start(spec: GameSpec, grid: SimplexGrid):
    """Once per call, the table-independent data of every (grid point, a^l,
    pure follower map) pair, stacked (P, M) with M in a^l-major then map
    order: the follower reward (P, M, n_f, n_af) and kernel rows
    (P, M, n_f, n_af, n_f) under a^l, the leader reward against the map
    (P, M), a^l and the map of each pair, and each next mean field's stencil
    number.  Numbers go by exact bytes in first-seen order, with one
    ``simplex_weights`` stencil each.  Also returns zero tables."""
    n_f, n_af, n_al = spec.n_follower_states, spec.n_follower_actions, spec.n_leader_actions
    Z = grid.points
    maps = np.array(list(itertools.product(range(n_af), repeat=n_f)), dtype=np.int64)
    P, M = grid.n_points, n_al * len(maps)
    # (P, n_al, ...) -> (P, M, ...): each a^l's rows repeated over the maps
    reward = np.repeat(np.moveaxis(spec.follower_reward(Z)[:, 0], 2, 1), len(maps), axis=1)
    kernel = np.repeat(np.moveaxis(spec.follower_kernel(Z)[:, 0], 2, 1), len(maps), axis=1)
    lead = spec.leader_reward(Z[:, None], np.eye(n_af)[maps])[:, :, 0]      # (P, maps, n_al)
    lead = np.moveaxis(lead, 2, 1).reshape(P, M)
    al, bf = np.repeat(np.arange(n_al), len(maps)), np.tile(maps, (n_al, 1))
    rows = kernel[:, np.arange(M)[:, None], np.arange(n_f), bf]     # (P, M, n_f, n_f)
    z_next = np.zeros((P, M, n_f))
    for xf in range(n_f):
        z_next += Z[:, None, xf, None] * rows[:, :, xf]
    z_next = np.clip(z_next, 0.0, None)
    z_next = z_next / z_next.sum(axis=-1, keepdims=True)
    stencils = {}
    s = (np.array([stencils.setdefault(row.tobytes(), len(stencils))
                   for row in z_next.reshape(-1, n_f)]).reshape(P, M) if spec.discount else None)
    return ((reward, kernel, lead, al, bf, s),
            [simplex_weights(grid, np.frombuffer(key)) for key in stencils],
            _ZTable(grid, np.zeros((P, n_f))), _ZTable(grid, np.zeros((P, 1))))


def _sweep(spec, grid, pairs, stencils, vf, vl, br_tol, t=None):
    """One stage solve at every grid point; returns tables and prescriptions.

    A pair's follower map is a fixed point if each type's played action
    attains the row maximum of the expected reward-to-go computed with the
    next mean field induced by the map itself.  Each point takes the first
    fixed point in (a^l, map) order whose leader total is within
    ``SELECTION_TOL`` of the greatest.
    """
    reward, kernel, lead, al, bf, s = pairs
    delta = spec.discount
    if delta != 0.0:
        v = np.array([w @ vf.values[idx, :] for idx, w in stencils])[s]
        lead = lead + delta * np.array([w @ vl.values[idx, 0] for idx, w in stencils])[s]
    else:
        v = np.zeros(reward.shape[:3])
    # (1, n_f) @ (n_f, 1) per entry: the dot product of each kernel row
    obj = reward + delta * np.matmul(kernel[..., None, :], v[:, :, None, None, :, None])[..., 0, 0]
    played = np.take_along_axis(obj, bf[None, :, :, None], axis=-1)[..., 0]
    fixed = ~np.any(played < obj.max(axis=-1) - br_tol, axis=-1)
    solved = fixed.any(axis=1)
    if not solved.all():
        raise NoEquilibriumError("no stage fixed point", t=t, pi=np.array([1.0]),
                                 z=grid.points[int(np.argmin(solved))].copy())
    lead_fixed = np.where(fixed, lead, -np.inf)
    choice = np.argmax(lead_fixed >= lead_fixed.max(axis=1, keepdims=True) - SELECTION_TOL,
                       axis=1)
    points = np.arange(grid.n_points)
    policy = [(int(al[c]), tuple(bf[c].tolist())) for c in choice]
    return (_ZTable(grid, played[points, choice]), _ZTable(grid, lead[points, choice][:, None]),
            policy)


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
        vf, vl, policy = _sweep(spec, grid, pairs, stencils, vf, vl, br_tol, t)
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
    for name, count in (("n_iters", n_iters), ("max_iter", max_iter)):
        if count is not None and count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    pairs, stencils, vf, vl = _start(spec, grid)
    deltas = []
    for _ in range(n_iters if n_iters is not None else max_iter):
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
