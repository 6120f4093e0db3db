"""Finite game data consumed by every other module.

A game is defined by ordered label sets for states and actions, transition
kernels and reward functions that may depend on the continuous mean field,
a discount factor, a horizon, and initial distributions.  Kernels and
rewards are callables of the mean field because the interesting models
couple transition probabilities to the population state; the validator
probes them on a lattice plus random interior points instead of trying to
verify them symbolically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import build_grid

ROW_SUM_TOL = 1e-12


def _frozen_array(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {arr.shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GameSpec:
    """Complete description of one leader/followers mean-field game.

    Kernel signatures (all index-based):
      leader_kernel(z, a_l, x_l)            -> distribution over leader states
      follower_kernel(z, x_l, x_f, a_l, a_f) -> distribution over follower states
      follower_reward(z, x_l, x_f, a_l, a_f) -> float
      leader_reward(z, x_l, a_l, gamma_f)    -> float, where gamma_f is the
          follower prescription matrix (n_f, n_af); social-welfare style
          objectives use it, others ignore it.

    ``horizon`` is the number of stages for a finite game, or None for the
    stationary discounted game (requires discount < 1).
    """

    follower_states: tuple
    leader_states: tuple
    follower_actions: tuple
    leader_actions: tuple
    leader_kernel: Callable
    follower_kernel: Callable
    follower_reward: Callable
    leader_reward: Callable
    discount: float
    horizon: Optional[int]
    initial_leader_belief: np.ndarray
    initial_mean_field: np.ndarray
    name: str = "game"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "follower_states", tuple(str(s) for s in self.follower_states))
        object.__setattr__(self, "leader_states", tuple(str(s) for s in self.leader_states))
        object.__setattr__(self, "follower_actions", tuple(str(s) for s in self.follower_actions))
        object.__setattr__(self, "leader_actions", tuple(str(s) for s in self.leader_actions))
        object.__setattr__(
            self, "initial_leader_belief",
            _frozen_array(self.initial_leader_belief, self.n_leader_states, "initial_leader_belief"),
        )
        object.__setattr__(
            self, "initial_mean_field",
            _frozen_array(self.initial_mean_field, self.n_follower_states, "initial_mean_field"),
        )

    @property
    def n_follower_states(self) -> int:
        return len(self.follower_states)

    @property
    def n_leader_states(self) -> int:
        return len(self.leader_states)

    @property
    def n_follower_actions(self) -> int:
        return len(self.follower_actions)

    @property
    def n_leader_actions(self) -> int:
        return len(self.leader_actions)

    @property
    def infinite_horizon(self) -> bool:
        return self.horizon is None

    def follower_kernel_tensor(self, z) -> np.ndarray:
        """Q^f at a fixed mean field: shape (n_l, n_f, n_al, n_af, n_f)."""
        shape = (self.n_leader_states, self.n_follower_states,
                 self.n_leader_actions, self.n_follower_actions)
        rows = [self.follower_kernel(z, *idx) for idx in np.ndindex(shape)]
        return np.array(rows, dtype=np.float64).reshape(shape + (self.n_follower_states,))

    def leader_kernel_tensor(self, z) -> np.ndarray:
        """Q^l at a fixed mean field: shape (n_l, n_al, n_l)."""
        shape = (self.n_leader_states, self.n_leader_actions)
        rows = [self.leader_kernel(z, al, xl) for xl, al in np.ndindex(shape)]
        return np.array(rows, dtype=np.float64).reshape(shape + (self.n_leader_states,))

    def follower_reward_tensor(self, z) -> np.ndarray:
        """R^f at a fixed mean field: shape (n_l, n_f, n_al, n_af)."""
        shape = (self.n_leader_states, self.n_follower_states,
                 self.n_leader_actions, self.n_follower_actions)
        rewards = [float(self.follower_reward(z, *idx)) for idx in np.ndindex(shape)]
        return np.array(rewards).reshape(shape)


@dataclass
class ValidationReport:
    """Outcome of probing a spec; empty issue list means usable by the solver."""

    issues: list = field(default_factory=list)
    probes: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, message: str):
        self.issues.append(message)

    def __str__(self):
        if self.ok:
            return f"OK ({self.probes} mean-field probes)"
        lines = [f"{len(self.issues)} issue(s) found ({self.probes} mean-field probes):"]
        lines.extend(f"  - {msg}" for msg in self.issues)
        return "\n".join(lines)


def _is_distribution(vec: np.ndarray, tol: float = ROW_SUM_TOL):
    if not np.all(np.isfinite(vec)):
        return False, "non-finite entries"
    if np.min(vec) < -1e-15:
        return False, f"negative entry {np.min(vec):.3e}"
    s = float(np.sum(vec))
    if abs(s - 1.0) > tol:
        return False, f"row sums to {s:.15g}"
    return True, ""


def _mean_field_probes(spec: GameSpec, grid_resolution: Optional[int], n_random: int, seed: int):
    n_f = spec.n_follower_states
    if grid_resolution is None:
        grid_resolution = 10 if n_f > 2 else 50
    grid = build_grid(n_f, grid_resolution)
    probes = [grid.points[i] for i in range(grid.n_points)]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        probes.append(rng.dirichlet(np.ones(n_f)))
    return probes


def validate(spec: GameSpec, grid_resolution: Optional[int] = None,
             n_random: int = 100, seed: int = 20240) -> ValidationReport:
    """Probe kernels, rewards and scalars; report every violated invariant.

    Never raises: a report naming each bad row/value is returned instead, so
    callers can surface all problems at once.
    """
    report = ValidationReport()
    d = spec.discount
    if not (0.0 <= d <= 1.0):
        report.add(f"discount must lie in [0, 1], got {d}")
    if spec.infinite_horizon and not d < 1.0:
        report.add("discount must be < 1 for an infinite horizon")
    if spec.horizon is not None and spec.horizon < 1:
        report.add(f"finite horizon must be >= 1, got {spec.horizon}")

    ok, why = _is_distribution(spec.initial_leader_belief, tol=1e-9)
    if not ok:
        report.add(f"initial leader belief is not a distribution: {why}")
    ok, why = _is_distribution(spec.initial_mean_field, tol=1e-9)
    if not ok:
        report.add(f"initial mean field is not a distribution: {why}")

    probe_gammas = [np.full((spec.n_follower_states, spec.n_follower_actions),
                            1.0 / spec.n_follower_actions)]
    for a in range(spec.n_follower_actions):
        g = np.zeros((spec.n_follower_states, spec.n_follower_actions))
        g[:, a] = 1.0
        probe_gammas.append(g)

    probes = _mean_field_probes(spec, grid_resolution, n_random, seed)
    report.probes = len(probes)
    max_reported = 50
    for pz, z in enumerate(probes):
        if len(report.issues) >= max_reported:
            report.add("... further issues suppressed")
            break
        for xl in range(spec.n_leader_states):
            for al in range(spec.n_leader_actions):
                row = np.asarray(spec.leader_kernel(z, al, xl), dtype=np.float64)
                if row.shape != (spec.n_leader_states,):
                    report.add(f"leader kernel row (a^l={al}, x^l={xl}) has shape {row.shape}")
                    continue
                ok, why = _is_distribution(row)
                if not ok:
                    report.add(f"leader kernel row (a^l={al}, x^l={xl}) at probe {pz}: {why}")
                for xf in range(spec.n_follower_states):
                    for af in range(spec.n_follower_actions):
                        frow = np.asarray(spec.follower_kernel(z, xl, xf, al, af),
                                          dtype=np.float64)
                        if frow.shape != (spec.n_follower_states,):
                            report.add(
                                f"follower kernel row (x^l={xl}, x^f={xf}, a^l={al}, a^f={af})"
                                f" has shape {frow.shape}")
                            continue
                        ok, why = _is_distribution(frow)
                        if not ok:
                            report.add(
                                f"follower kernel row (x^l={xl}, x^f={xf}, a^l={al}, a^f={af})"
                                f" at probe {pz}: {why}")
                        r = float(spec.follower_reward(z, xl, xf, al, af))
                        if not np.isfinite(r):
                            report.add(
                                f"follower reward (x^l={xl}, x^f={xf}, a^l={al}, a^f={af})"
                                f" at probe {pz} is {r}")
                for g in probe_gammas:
                    rl = float(spec.leader_reward(z, xl, al, g))
                    if not np.isfinite(rl):
                        report.add(f"leader reward (x^l={xl}, a^l={al}) at probe {pz} is {rl}")
    return report


def spec_hash(spec: GameSpec) -> str:
    """Deterministic fingerprint of the game data.

    Kernels and rewards are callables, so they are fingerprinted by value on
    a fixed probe set; any parameter change that alters behaviour anywhere
    on the probes changes the hash.
    """
    n_f = spec.n_follower_states
    probes = [np.eye(n_f)[i] for i in range(n_f)]
    probes.append(np.full(n_f, 1.0 / n_f))
    rng = np.random.default_rng(1234321)
    for _ in range(8):
        probes.append(rng.dirichlet(np.ones(n_f)))
    gammas = [np.full((n_f, spec.n_follower_actions), 1.0 / spec.n_follower_actions)]
    for a in range(spec.n_follower_actions):
        g = np.zeros((n_f, spec.n_follower_actions))
        g[:, a] = 1.0
        gammas.append(g)

    payload = {
        "follower_states": spec.follower_states,
        "leader_states": spec.leader_states,
        "follower_actions": spec.follower_actions,
        "leader_actions": spec.leader_actions,
        "discount": repr(spec.discount),
        "horizon": spec.horizon,
        "initial_leader_belief": [repr(v) for v in spec.initial_leader_belief],
        "initial_mean_field": [repr(v) for v in spec.initial_mean_field],
        # declared parameters too, so even behaviorally-inert parameter
        # changes are visible in the fingerprint
        "params": spec.metadata.get("params"),
    }
    samples = []
    for z in probes:
        samples.append(spec.follower_kernel_tensor(z).tobytes())
        samples.append(spec.leader_kernel_tensor(z).tobytes())
        samples.append(spec.follower_reward_tensor(z).tobytes())
        rl = np.array([[[spec.leader_reward(z, xl, al, g) for g in gammas]
                        for al in range(spec.n_leader_actions)]
                       for xl in range(spec.n_leader_states)])
        samples.append(rl.tobytes())
    h = hashlib.sha256()
    h.update(json.dumps(payload, sort_keys=True, default=repr).encode())
    for s in samples:
        h.update(s)
    return h.hexdigest()[:16]
