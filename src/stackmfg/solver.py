"""Horizon-level drivers: backward recursion, stationary solve, trajectories.

Stage indexing convention: game stages are 1-based (1..T).  ``tables[k]``
holds the value tables at stage k+1, so ``tables[0]`` is the stage-1 table
and ``tables[T]`` the identically-zero terminal table.  ``stages[k]`` is the
prescription map used at stage k+1.  A stationary solve produces a single
stage entry applied at every time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .dynamics import Prescription, belief_step_total, mean_field_step
from .errors import NonConvergenceError
from .game import GameSpec
from .grids import JointGrid, JointTable
from .stage import SolverConfig, StageEngine, StageSweep, leader_optimize

BRANCH_CAP = 64     # expected-path branches kept per forward step, by weight


@dataclass
class EquilibriumGenerator:
    """Prescriptions for every stage and joint grid point.

    ``stages`` holds one ``StageSweep`` per stage over the grid points in
    flat order; a stationary solve stores a single one used at all times.
    ``next_states`` is the solving engine's ``StageEngine.next_states``,
    None for a generator reloaded from disk.
    """

    joint: JointGrid
    stages: list
    stationary: bool
    tables: list = field(default_factory=list)
    next_states: Optional[tuple] = None

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def policy_for(self, t: int) -> StageSweep:
        """Solved stage used at 1-based stage ``t``."""
        if self.stationary:
            return self.stages[0]
        if not 1 <= t <= len(self.stages):
            raise IndexError(f"stage {t} outside horizon {len(self.stages)}")
        return self.stages[t - 1]

    def continuation_for(self, t: int):
        """(V^f, V^l) continuation tables used when solving stage ``t``."""
        if self.stationary:
            return self.tables[0]
        return self.tables[t]

    def grid_lookup(self, pi, z):
        """(flat index, exact flag): the nearest grid point, exact when it is
        within 1e-12 of (pi, z) in every coordinate."""
        pi, z = np.asarray(pi, dtype=np.float64), np.asarray(z, dtype=np.float64)
        pg, zg = self.joint.pi_grid, self.joint.z_grid
        i = int(((pg.points - pi) ** 2).sum(axis=1).argmin())
        j = int(((zg.points - z) ** 2).sum(axis=1).argmin())
        exact = (np.abs(pg.points[i] - pi).max() <= 1e-12
                 and np.abs(zg.points[j] - z).max() <= 1e-12)
        return self.joint.flat_index(i, j), bool(exact)


@dataclass
class ConvergenceReport:
    """Per-sweep sup-norm deltas and prescription stability flags."""

    deltas: list = field(default_factory=list)
    prescription_stable: list = field(default_factory=list)
    converged: bool = False
    tolerance: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.deltas)

    def to_dict(self):
        return {"iterations": self.iterations, **asdict(self)}


def _sweep(engine: StageEngine, vf: JointTable, vl: JointTable, **kwargs):
    """One engine sweep over the grid: (StageSweep, new V^f, new V^l)."""
    sweep = engine.sweep(vf.flat_values(), vl.flat_values(), **kwargs)
    shape = vf.values.shape[:2] + (-1,)
    return (sweep, JointTable(vf.joint, sweep.follower_values.reshape(shape)),
            JointTable(vl.joint, sweep.leader_values.reshape(shape)))


def backward_pass(spec: GameSpec, joint: JointGrid,
                  config: Optional[SolverConfig] = None,
                  prefer: Optional[Callable] = None):
    """Finite-horizon backward recursion over the joint grid.

    Returns (generator, tables) with ``tables[k]`` the stage-(k+1) value
    tables; the terminal entry is zero.  Raises NoEquilibriumError annotated
    with (t, belief, mean field) at the first state without an equilibrium.
    """
    if spec.horizon is None:
        raise ValueError("backward_pass needs a finite horizon; "
                         "use solve_stationary for discounted infinite games")
    T = spec.horizon
    engine = StageEngine(spec, joint, config=config)
    tables = [None] * (T + 1)
    tables[T] = (JointTable.zeros(joint, spec.n_follower_states),
                 JointTable.zeros(joint, spec.n_leader_states))
    stages = [None] * T
    for t in range(T, 0, -1):
        vf_next, vl_next = tables[t]
        sweep, vf, vl = _sweep(engine, vf_next, vl_next, t=t, prefer=prefer)
        stages[t - 1], tables[t - 1] = sweep, (vf, vl)
    gen = EquilibriumGenerator(joint=joint, stages=stages, stationary=False,
                               tables=tables, next_states=engine.next_states)
    return gen, tables


def solve_stationary(spec: GameSpec, joint: JointGrid, tol: float = 1e-6,
                     max_iter: int = 2000, config: Optional[SolverConfig] = None,
                     initial_tables=None):
    """Value iteration for the discounted stationary game.

    Sweeps the stage solver with the current tables as continuation until
    the sup-norm change of both tables drops below ``tol``.  Returns
    (generator, (V^f, V^l), ConvergenceReport); raises NonConvergenceError
    carrying the delta history otherwise.
    """
    if not spec.infinite_horizon:
        raise ValueError("solve_stationary expects an infinite-horizon spec")
    if not spec.discount < 1.0:
        raise ValueError("stationary solve requires discount < 1")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol > 0:
        raise ValueError(f"tol must be above 0, got {tol}")
    engine = StageEngine(spec, joint, config=config)
    if initial_tables is None:
        vf = JointTable.zeros(joint, spec.n_follower_states)
        vl = JointTable.zeros(joint, spec.n_leader_states)
    else:
        vf, vl = initial_tables
    report = ConvergenceReport(tolerance=tol)
    prev = None
    for _ in range(max_iter):
        sweep, new_vf, new_vl = _sweep(engine, vf, vl)
        delta = max(new_vf.max_abs_diff(vf), new_vl.max_abs_diff(vl))
        stable = (prev is not None and np.array_equal(sweep.leader, prev.leader)
                  and np.array_equal(sweep.follower, prev.follower))
        report.deltas.append(float(delta))
        report.prescription_stable.append(stable)
        prev = sweep
        vf, vl = new_vf, new_vl
        if delta < tol:
            report.converged = True
            gen = EquilibriumGenerator(joint=joint, stationary=True, tables=[(vf, vl)],
                                       stages=[sweep], next_states=engine.next_states)
            return gen, (vf, vl), report
    raise NonConvergenceError(
        f"stationary solve did not reach {tol:g} in {max_iter} sweeps "
        f"(last delta {report.deltas[-1]:.3e})", deltas=report.deltas)


# ---------------------------------------------------------------------------
# Forward recursion


@dataclass
class Branch:
    """One public-history branch of an expected-path trajectory."""

    weight: float
    pi: np.ndarray
    z: np.ndarray
    # follower type distribution rows per starting type, leader-posterior
    # weighted; used for the representative-follower accumulators.
    xi: np.ndarray


@dataclass
class TrajectoryStep:
    t: int
    branches: list
    prescriptions: list          # Prescription per branch
    action_marginals: list       # leader action marginal per branch
    leader_reward: float         # weight-averaged instantaneous reward
    follower_reward: float       # population-average instantaneous reward
    offgrid_lookups: int = 0


@dataclass
class Trajectory:
    steps: list
    leader_discounted: float
    follower_discounted: np.ndarray
    mode: str
    seed: Optional[int]
    lost_weight: float = 0.0
    offgrid_lookups: int = 0
    # branch-steps worked out anew, and those taken from an earlier branch
    # at the same (stage, pi, z)
    computed_steps: int = 0
    reused_steps: int = 0

    def mean_field_path(self) -> np.ndarray:
        """Weight-averaged mean field per step (exact when unbranched)."""
        out = []
        for step in self.steps:
            z = sum(b.weight * b.z for b in step.branches)
            out.append(z / sum(b.weight for b in step.branches))
        return np.asarray(out)


def _branch_prescription(spec, generator, t, branch, offgrid, config):
    flat, exact = generator.grid_lookup(branch.pi, branch.z)
    if not exact and offgrid == "resolve":
        vf, vl = generator.continuation_for(t)
        return leader_optimize(branch.pi, branch.z, vl, vf, spec, config, t=t).prescription, 1
    return generator.policy_for(t).prescription(flat), int(not exact)


def _instant_rewards(spec, branch, gamma: Prescription):
    """(leader reward, population reward, follower reward per type)."""
    pi, z = branch.pi, branch.z
    gl, gf = gamma.leader, gamma.follower
    rf = spec.follower_reward(z)                        # (n_l, n_f, n_al, n_af)
    lead = spec.leader_reward(z, gf)                    # (n_l, n_al)
    w_la = pi[:, None] * gl
    rl = 0.0
    for xl, al in zip(*np.nonzero(w_la > 0.0)):
        rl += w_la[xl, al] * float(lead[xl, al])
    per_type = np.einsum("la,lfab,fb->f", w_la, rf, gf)  # E[R^f | x^f]
    return rl, float(z @ per_type), per_type


def _transition_kernels(spec, branch, gamma: Prescription):
    """Per leader action: (marginal prob, follower transition matrix)."""
    pi, z = branch.pi, branch.z
    gl, gf = gamma.leader, gamma.follower
    qf = spec.follower_kernel(z)
    out = {}
    for al in range(spec.n_leader_actions):
        w = float(pi @ gl[:, al])
        if w <= 0.0:
            continue
        post = pi * gl[:, al] / w
        k = np.einsum("l,lfbn,fb->fn", post, qf[:, :, al, :, :], gf)
        out[al] = (w, k)
    return out


def _branch_step(spec, generator, t, branch, offgrid, config):
    """All a step from ``branch`` computes from (t, pi, z) alone, arrays read-only."""
    gamma, off = _branch_prescription(spec, generator, t, branch, offgrid, config)
    kernels = _transition_kernels(spec, branch, gamma)
    marginal = np.array([kernels.get(al, (0.0,))[0] for al in range(spec.n_leader_actions)])
    z_next = mean_field_step(branch.pi, branch.z, gamma, spec)
    beliefs = {al: belief_step_total(branch.pi, branch.z, gamma.leader, al, spec,
                                     eps=config.bayes_eps)[0] for al in kernels}
    rl, pop, per_type = _instant_rewards(spec, branch, gamma)
    for arr in (marginal, z_next, per_type, *beliefs.values(), *(k for _, k in kernels.values())):
        arr.flags.writeable = False
    return gamma, off, rl, pop, per_type, kernels, marginal, z_next, beliefs


def forward_pass(spec: GameSpec, generator: EquilibriumGenerator, pi1, z1,
                 steps: Optional[int] = None, mode: str = "expected",
                 seed: Optional[int] = None, offgrid: str = "nearest",
                 config: Optional[SolverConfig] = None) -> Trajectory:
    """Unroll equilibrium play from an initial (belief, mean field).

    Expected-path mode propagates the mean field exactly and branches the
    belief over realized leader actions (branches with identical beliefs are
    merged; at most ``BRANCH_CAP`` kept by weight).  Sampled mode
    draws one leader action path with the given seed.
    """
    if mode not in ("expected", "sampled"):
        raise ValueError(f"unknown mode {mode!r}; expected 'expected' or 'sampled'")
    if offgrid not in ("resolve", "nearest"):
        raise ValueError(f"unknown offgrid policy {offgrid!r}; expected 'resolve' or 'nearest'")
    config = config or SolverConfig()
    if steps is None:
        if generator.stationary:
            raise ValueError("steps is required for a stationary generator")
        steps = generator.n_stages
    if not generator.stationary and steps > generator.n_stages:
        raise ValueError(f"horizon has {generator.n_stages} stages, asked for {steps}")
    rng = np.random.default_rng(seed) if mode == "sampled" else None

    n_f = spec.n_follower_states
    pi = np.asarray(pi1, dtype=np.float64)
    z = np.asarray(z1, dtype=np.float64)
    branches = [Branch(weight=1.0, pi=pi, z=z, xi=np.eye(n_f))]
    steps_out = []
    leader_acc = 0.0
    follower_acc = np.zeros(n_f)
    lost_weight = 0.0
    offgrid_total = 0
    disc = 1.0
    # _branch_step results by state: a stationary generator's for the whole
    # pass; a finite one's stage, and so every key, changes each step.
    memo = {}
    computed = 0

    for t in range(1, steps + 1):
        stage_t = t if not generator.stationary else 1
        prescriptions = []
        marginals = []
        step_rl = 0.0
        step_pop = 0.0
        step_offgrid = 0
        next_branches = []
        if not generator.stationary:
            memo = {}
        for branch in branches:
            # Every term but those in xi is a pure function of this state.
            state = (stage_t, branch.pi.tobytes(), branch.z.tobytes())
            entry = memo.get(state)
            if entry is None:
                entry = memo[state] = _branch_step(spec, generator, stage_t, branch, offgrid,
                                                   config)
                computed += 1
            gamma, off, rl, pop, per_type, kernels, marginal, z_next, beliefs = entry
            step_offgrid += off
            prescriptions.append(gamma)
            marginals.append(marginal)
            step_rl += branch.weight * rl
            step_pop += branch.weight * pop
            leader_acc += disc * branch.weight * rl
            follower_acc += disc * branch.weight * (branch.xi @ per_type)

            if mode == "sampled":
                als = sorted(kernels)
                probs = np.array([kernels[al][0] for al in als])
                al = als[int(rng.choice(len(als), p=probs / probs.sum()))]
                next_branches.append(Branch(weight=branch.weight, pi=beliefs[al],
                                            z=z_next, xi=branch.xi @ kernels[al][1]))
                continue

            # Expected path: group leader actions by the belief they induce.
            groups = {}
            for al, (w, k) in kernels.items():
                pi_next = beliefs[al]
                key = tuple(np.round(pi_next, 12))
                if key not in groups:
                    groups[key] = [0.0, pi_next, np.zeros_like(branch.xi)]
                groups[key][0] += w
                groups[key][2] += w * (branch.xi @ k)
            for _, (w, pi_next, xi_acc) in sorted(groups.items()):
                next_branches.append(Branch(weight=branch.weight * w, pi=pi_next,
                                            z=z_next, xi=xi_acc / w))

        steps_out.append(TrajectoryStep(
            t=t, branches=branches, prescriptions=prescriptions,
            action_marginals=marginals, leader_reward=step_rl,
            follower_reward=step_pop, offgrid_lookups=step_offgrid))
        offgrid_total += step_offgrid

        if len(next_branches) > BRANCH_CAP:
            next_branches.sort(key=lambda b: -b.weight)
            dropped = next_branches[BRANCH_CAP:]
            lost_weight += sum(b.weight for b in dropped)
            next_branches = next_branches[:BRANCH_CAP]
            total = sum(b.weight for b in next_branches)
            for b in next_branches:
                b.weight /= total
        branches = next_branches
        disc *= spec.discount

    return Trajectory(steps=steps_out, leader_discounted=leader_acc,
                      follower_discounted=follower_acc, mode=mode, seed=seed,
                      lost_weight=lost_weight, offgrid_lookups=offgrid_total,
                      computed_steps=computed,
                      reused_steps=sum(len(s.branches) for s in steps_out) - computed)


# ---------------------------------------------------------------------------
# Exact expected values under a given prescription policy


def exact_values(spec: GameSpec, policy: Callable, pi1, z1, horizon: int,
                 bayes_eps: float = 1e-12):
    """Exact expected discounted values by exhaustive tree expansion.

    ``policy(t, pi, z) -> Prescription`` defines play at every reachable
    public state.  Returns (follower values per starting type, leader values
    per starting type), conditioning on the start type and the initial
    belief.  Independent of the value tables, so it double-checks them.
    """
    pi1 = np.asarray(pi1, dtype=np.float64)
    z1 = np.asarray(z1, dtype=np.float64)
    memo = {}

    def node(t, pi, z):
        if t > horizon:
            return np.zeros(spec.n_follower_states), np.zeros(spec.n_leader_states)
        key = (t, tuple(np.round(pi, 12)), tuple(np.round(z, 12)))
        if key in memo:
            return memo[key]
        gamma = policy(t, pi, z)
        gl, gf = gamma.leader, gamma.follower
        z_next = mean_field_step(pi, z, gamma, spec)
        qf = spec.follower_kernel(z)
        rf = spec.follower_reward(z)
        ql = spec.leader_kernel(z)
        rl = spec.leader_reward(z, gf)

        children = {}
        for al in range(spec.n_leader_actions):
            if np.any(gl[:, al] > 0.0):
                pi_next, _ = belief_step_total(pi, z, gl, al, spec, eps=bayes_eps)
                children[al] = node(t + 1, pi_next, z_next)

        vf = np.zeros(spec.n_follower_states)
        vl = np.zeros(spec.n_leader_states)
        for xl in range(spec.n_leader_states):
            for al, child in children.items():
                w_pub = pi[xl] * gl[xl, al]
                if w_pub > 0.0:
                    inst = np.sum(gf * (rf[xl, :, al, :]
                                        + spec.discount * (qf[xl, :, al, :, :] @ child[0])),
                                  axis=1)
                    vf += w_pub * inst
                if gl[xl, al] > 0.0:
                    vl[xl] += gl[xl, al] * (
                        float(rl[xl, al])
                        + spec.discount * float(ql[xl, al, :] @ child[1]))
        memo[key] = (vf, vl)
        return memo[key]

    return node(1, pi1, z1)


def generator_policy(generator: EquilibriumGenerator) -> Callable:
    """Policy callable over exact grid points backed by a generator."""

    def policy(t, pi, z):
        flat, exact = generator.grid_lookup(pi, z)
        if not exact:
            raise ValueError(f"public state off-grid at t={t}: pi={pi}, z={z}")
        return generator.policy_for(t if not generator.stationary else 1).prescription(flat)

    return policy
