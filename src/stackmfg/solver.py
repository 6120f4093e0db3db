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

from .dynamics import belief_step_total, mean_field_step
from .errors import NoEquilibriumError, NonConvergenceError, NonFiniteValues
from .game import GameSpec
from .grids import JointGrid, JointTable
from .stage import SolverConfig, StageEngine, StageSweep

BRANCH_CAP = 64     # expected-path branches kept per forward step, by weight


@dataclass
class EquilibriumGenerator:
    """Prescriptions and values for every stage and joint grid point.

    ``stages`` holds one ``StageSweep`` per stage over the grid points in
    flat order, whose arrays are the only value tables; a stationary solve
    stores a single one used at all times.  ``next_states`` is the solving
    engine's ``StageEngine.next_states``, None for one reloaded from disk.
    """

    joint: JointGrid
    stages: list
    stationary: bool
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

    def continuation_flat(self, t: int):
        """Flat (V^f, V^l) used when solving stage ``t``: the values of stage
        t + 1, zero after the last stage."""
        after_last = not self.stationary and t == len(self.stages)
        sweep = self.policy_for(t if after_last else t + 1)
        return tuple(np.where(after_last, 0.0, v)
                     for v in (sweep.follower_values, sweep.leader_values))

    def continuation_for(self, t: int):
        """``continuation_flat(t)`` as (V^f, V^l) ``JointTable``s."""
        shape = (self.joint.pi_grid.n_points, self.joint.z_grid.n_points, -1)
        return tuple(JointTable(self.joint, v.reshape(shape)) for v in self.continuation_flat(t))

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


def _sweep(engine: StageEngine, vf, vl, where: str, **kwargs):
    """One engine sweep as (sweep, V^f, V^l); its overflow raises NonFiniteValues
    at the first non-finite point, in place of numpy's warnings; a
    NoEquilibriumError names ``where``."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            sweep = engine.sweep(vf, vl, **kwargs)
        except NoEquilibriumError as err:
            err.where = where
            raise
    finite = np.isfinite(np.hstack([sweep.follower_values, sweep.leader_values])).all(axis=1)
    if not finite.all():
        raise NonFiniteValues("value tables are not finite at {}, pi={}, z={}".format(
            where, *engine.joint.point(int(np.argmin(finite)))))
    return sweep, sweep.follower_values, sweep.leader_values


def backward_pass(spec: GameSpec, joint: JointGrid,
                  config: Optional[SolverConfig] = None,
                  prefer: Optional[Callable] = None):
    """Finite-horizon backward recursion over the joint grid.

    Returns (generator, tables) with ``tables[k]`` the stage-(k+1) value
    tables; the terminal entry is zero.  Raises NoEquilibriumError annotated
    with (t, belief, mean field) at the first state without an equilibrium
    and NonFiniteValues at the first stage with a non-finite value.
    """
    if spec.horizon is None:
        raise ValueError("backward_pass needs a finite horizon; "
                         "use solve_stationary for discounted infinite games")
    T = spec.horizon
    engine = StageEngine(spec, joint, config=config)
    vf = np.zeros((joint.n_points, spec.n_follower_states))
    vl = np.zeros((joint.n_points, spec.n_leader_states))
    stages = [None] * T
    for t in range(T, 0, -1):
        stages[t - 1], vf, vl = _sweep(engine, vf, vl, f"t={t}", t=t, prefer=prefer)
    gen = EquilibriumGenerator(joint=joint, stages=stages, stationary=False,
                               next_states=engine.next_states)
    return gen, [gen.continuation_for(t) for t in range(T + 1)]


def solve_stationary(spec: GameSpec, joint: JointGrid, tol: float = 1e-6,
                     max_iter: int = 2000, config: Optional[SolverConfig] = None):
    """Value iteration for the discounted stationary game.

    Sweeps the stage solver with the last sweep's values as continuation,
    from zero, until the sup-norm change of both tables drops below ``tol``.
    Returns (generator, (V^f, V^l), ConvergenceReport); raises
    NonConvergenceError carrying the delta history otherwise, and
    NonFiniteValues at the first sweep with a non-finite value.
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
    vf = np.zeros((joint.n_points, spec.n_follower_states))
    vl = np.zeros((joint.n_points, spec.n_leader_states))
    report = ConvergenceReport(tolerance=tol)
    prev = None
    for k in range(1, max_iter + 1):
        sweep, new_vf, new_vl = _sweep(engine, vf, vl, f"stationary sweep {k}")
        delta = max(np.max(np.abs(new_vf - vf)), np.max(np.abs(new_vl - vl)))
        stable = (prev is not None and np.array_equal(sweep.leader, prev.leader)
                  and np.array_equal(sweep.follower, prev.follower))
        report.deltas.append(float(delta))
        report.prescription_stable.append(stable)
        prev, vf, vl = sweep, new_vf, new_vl
        if delta < tol:
            report.converged = True
            gen = EquilibriumGenerator(joint=joint, stages=[sweep], stationary=True,
                                       next_states=engine.next_states)
            return gen, gen.continuation_for(0), report
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
        return np.asarray([sum(b.weight * b.z for b in step.branches)
                           / sum(b.weight for b in step.branches) for step in self.steps])


def _branch_step(spec, pi, z, gamma, off, config):
    """All a step from (pi, z) under prescription ``gamma`` computes, arrays
    read-only: prescription, off-grid flag, leader, population and per-type
    follower rewards, leader action marginal, next mean field and
    ``{played leader action: (probability, follower kernel, next belief)}``."""
    gl, gf = gamma.leader, gamma.follower
    w_la = pi[:, None] * gl
    lead = spec.leader_reward(z, gf)                    # (n_l, n_al)
    rl = sum((w_la[xl, al] * float(lead[xl, al]) for xl, al in zip(*np.nonzero(w_la > 0.0))), 0.0)
    per_type = np.einsum("la,lfab,fb->f", w_la, spec.follower_reward(z), gf)  # E[R^f | x^f]
    qf = spec.follower_kernel(z)
    played = {}
    for al in range(spec.n_leader_actions):
        w = float(pi @ gl[:, al])
        if w > 0.0:
            played[al] = (w, np.einsum("l,lfbn,fb->fn", pi * gl[:, al] / w, qf[:, :, al], gf),
                          belief_step_total(pi, z, gl, al, spec, eps=config.bayes_eps)[0])
    marginal = np.array([played.get(al, (0.0,))[0] for al in range(spec.n_leader_actions)])
    z_next = mean_field_step(pi, z, gamma, spec)
    for arr in [marginal, z_next, per_type] + [a for _, k, b in played.values() for a in (k, b)]:
        arr.flags.writeable = False
    return gamma, int(off), rl, float(z @ per_type), per_type, marginal, z_next, played


def forward_pass(spec: GameSpec, generator: EquilibriumGenerator, pi1, z1,
                 steps: Optional[int] = None, mode: str = "expected",
                 seed: Optional[int] = None, offgrid: str = "nearest",
                 config: Optional[SolverConfig] = None) -> Trajectory:
    """Unroll equilibrium play from an initial (belief, mean field).

    Expected-path mode propagates the mean field exactly and branches the
    belief over realized leader actions (branches with identical beliefs are
    merged; at most ``BRANCH_CAP`` kept by weight).  Sampled mode draws one
    leader action per step with the given seed and expands it the same way,
    as the only action played, at probability 1.
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
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if not generator.stationary and steps > generator.n_stages:
        raise ValueError(f"horizon has {generator.n_stages} stages, asked for {steps}")
    rng = np.random.default_rng(seed) if mode == "sampled" else None

    n_f = spec.n_follower_states
    branches = [Branch(weight=1.0, pi=np.asarray(pi1, dtype=np.float64),
                       z=np.asarray(z1, dtype=np.float64), xi=np.eye(n_f))]
    steps_out = []
    leader_acc = 0.0
    follower_acc = np.zeros(n_f)
    lost_weight = 0.0
    disc = 1.0
    # _branch_step results by state: a stationary generator's for the whole
    # pass; a finite one's stage, and so every key, changes each step.
    memo = {}
    computed = 0

    for t in range(1, steps + 1):
        stage_t = t if not generator.stationary else 1
        prescriptions = []
        marginals = []
        step_rl = step_pop = 0.0
        step_offgrid = 0
        next_branches = []
        if not generator.stationary:
            memo = {}
        # Every term but those in xi is a pure function of the state.
        states = [(stage_t, b.pi.tobytes(), b.z.tobytes()) for b in branches]
        new = {}            # (pi, z, flat, exact) of each state not computed yet
        for state, b in zip(states, branches):
            if state not in memo and state not in new:
                new[state] = (b.pi, b.z, *generator.grid_lookup(b.pi, b.z))
        # The step's off-grid states, re-solved in one sweep in branch order:
        # it raises NoEquilibriumError at the first without an equilibrium.
        resolve = [state for state, (*_, exact) in new.items()
                   if not exact and offgrid == "resolve"]
        gammas = {}
        if resolve:
            sweep = StageEngine(spec, generator.joint, [new[s][:2] for s in resolve],
                                config).sweep(*generator.continuation_flat(stage_t), t=stage_t)
            gammas = {state: sweep.prescription(k) for k, state in enumerate(resolve)}
        for state, (pi, z, flat, exact) in new.items():
            gamma = gammas.get(state) or generator.policy_for(stage_t).prescription(flat)
            memo[state] = _branch_step(spec, pi, z, gamma, not exact, config)
        computed += len(new)
        for state, branch in zip(states, branches):
            gamma, off, rl, pop, per_type, marginal, z_next, played = memo[state]
            step_offgrid += off
            prescriptions.append(gamma)
            marginals.append(marginal)
            step_rl += branch.weight * rl
            step_pop += branch.weight * pop
            leader_acc += disc * branch.weight * rl
            follower_acc += disc * branch.weight * (branch.xi @ per_type)
            if rng is not None:
                probs = np.array([w for w, _, _ in played.values()])
                al = list(played)[int(rng.choice(len(probs), p=probs / probs.sum()))]
                played = {al: (1.0, *played[al][1:])}

            # Group the played leader actions by the belief they induce.
            groups = {}
            for w, k, pi_next in played.values():
                group = groups.setdefault(tuple(np.round(pi_next, 12)),
                                          [0.0, pi_next, np.zeros_like(branch.xi)])
                group[0] += w
                group[2] += w * (branch.xi @ k)
            for _, (w, pi_next, xi_acc) in sorted(groups.items()):
                next_branches.append(Branch(weight=branch.weight * w, pi=pi_next,
                                            z=z_next, xi=xi_acc / w))

        steps_out.append(TrajectoryStep(
            t=t, branches=branches, prescriptions=prescriptions,
            action_marginals=marginals, leader_reward=step_rl,
            follower_reward=step_pop, offgrid_lookups=step_offgrid))

        if len(next_branches) > BRANCH_CAP:
            next_branches.sort(key=lambda b: -b.weight)
            lost_weight += sum(b.weight for b in next_branches[BRANCH_CAP:])
            next_branches = next_branches[:BRANCH_CAP]
            total = sum(b.weight for b in next_branches)
            for b in next_branches:
                b.weight /= total
        branches = next_branches
        disc *= spec.discount

    return Trajectory(steps=steps_out, leader_discounted=leader_acc,
                      follower_discounted=follower_acc, mode=mode, seed=seed,
                      lost_weight=lost_weight, computed_steps=computed,
                      offgrid_lookups=sum(s.offgrid_lookups for s in steps_out),
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
