"""Finite game data consumed by every other module.

A game is defined by ordered label sets for states and actions, transition
kernels and reward functions that may depend on the continuous mean field,
a discount factor, a horizon, and initial distributions.  Kernels and
rewards are array functions of the mean field, batched over leading axes,
because the interesting models couple transition probabilities to the
population state and every consumer needs them at many mean fields at
once; the validator probes them on a lattice plus random interior points
instead of trying to verify them symbolically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import build_grid

ROW_SUM_TOL = 1e-12
MAX_REPORTED = 50
# Every stage selection (engine, reference, oracle) takes the first pair in
# (leader, follower) order whose leader objective is within this of the best,
# so rounding in how an objective was summed cannot change the choice.
SELECTION_TOL = 1e-9


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

    Kernels and rewards take mean fields ``Z`` of shape (..., n_f) and
    return whole tensors, batched over the leading axes:
      follower_kernel(Z)     -> (..., n_l, n_f, n_al, n_af, n_f), rows are
                                distributions over next follower states
      leader_kernel(Z)       -> (..., n_l, n_al, n_l), rows over next leader states
      follower_reward(Z)     -> (..., n_l, n_f, n_al, n_af)
      leader_reward(Z, Gf)   -> (..., n_l, n_al), where ``Gf`` holds follower
          prescription matrices (..., n_f, n_af) whose leading axes broadcast
          against those of ``Z``; social-welfare style objectives use it,
          others ignore it.
    Index order is (x_l, x_f, a_l, a_f).  ``from_callables`` builds a spec
    from scalar functions of one index tuple.

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

    @classmethod
    def from_callables(cls, *, leader_kernel: Callable, follower_kernel: Callable,
                       follower_reward: Callable, leader_reward: Callable,
                       **fields) -> "GameSpec":
        """Spec from scalar functions of one mean field and one index tuple:
          leader_kernel(z, a_l, x_l)             -> row over next leader states
          follower_kernel(z, x_l, x_f, a_l, a_f) -> row over next follower states
          follower_reward(z, x_l, x_f, a_l, a_f) -> float
          leader_reward(z, x_l, a_l, gamma_f)    -> float, for one follower
              prescription matrix gamma_f (n_f, n_af)
        The other keyword arguments are the spec's remaining fields.  Each
        array function calls its scalar function once per mean field and
        index tuple.
        """
        n_l, n_f = len(fields["leader_states"]), len(fields["follower_states"])
        n_al, n_af = len(fields["leader_actions"]), len(fields["follower_actions"])
        pairs = (n_l, n_f, n_al, n_af)

        def tabulate(fn, shape, entry=()):
            def array_fn(Z, *Gf):       # Gf: follower prescriptions, leader reward only
                args = [(np.asarray(Z, dtype=np.float64), (n_f,))]
                args += [(np.asarray(G, dtype=np.float64), (n_f, n_af)) for G in Gf]
                batch = np.broadcast_shapes(*(a.shape[:a.ndim - len(c)] for a, c in args))
                rows = zip(*(np.broadcast_to(a, batch + c).reshape((-1,) + c) for a, c in args))
                flat = [[fn(*row, *idx) for idx in np.ndindex(shape)] for row in rows]
                return np.array(flat, dtype=np.float64).reshape(batch + shape + entry)
            return array_fn

        return cls(
            leader_kernel=tabulate(lambda z, xl, al: leader_kernel(z, al, xl),
                                   (n_l, n_al), (n_l,)),
            follower_kernel=tabulate(follower_kernel, pairs, (n_f,)),
            follower_reward=tabulate(lambda z, *idx: float(follower_reward(z, *idx)), pairs),
            leader_reward=tabulate(lambda z, g, xl, al: float(leader_reward(z, xl, al, g)),
                                   (n_l, n_al)), **fields)

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


def _row_faults(rows: np.ndarray, tol: float = ROW_SUM_TOL):
    """(index, reason) for each row along the last axis that is not a
    distribution, in row-major order."""
    with np.errstate(invalid="ignore"):
        finite, low, sums = np.isfinite(rows).all(axis=-1), rows.min(axis=-1), rows.sum(axis=-1)
        bad = ~finite | (low < -1e-15) | (np.abs(sums - 1.0) > tol)
    return [(idx, "non-finite entries" if not finite[idx]
             else f"negative entry {low[idx]:.3e}" if low[idx] < -1e-15
             else f"row sums to {float(sums[idx]):.15g}") for idx in zip(*np.nonzero(bad))]


def _mean_field_probes(spec: GameSpec, grid_resolution: Optional[int], n_random: int, seed: int):
    n_f = spec.n_follower_states
    if grid_resolution is None:
        grid_resolution = 10 if n_f > 2 else 50
    rng = np.random.default_rng(seed)
    return np.array([*build_grid(n_f, grid_resolution).points,
                     *(rng.dirichlet(np.ones(n_f)) for _ in range(n_random))])


def _probe_gammas(n_f: int, n_af: int) -> np.ndarray:
    """The uniform follower prescription, then each pure one playing a single action."""
    return np.concatenate([np.full((1, n_f, n_af), 1.0 / n_af),
                           np.repeat(np.eye(n_af)[:, None, :], n_f, axis=1)])


def _tabulated(report: ValidationReport, name: str, fn, args, shape) -> np.ndarray:
    """``fn(*args)`` as a float array of ``shape``; after a failure, which is
    reported, an empty array of probes, so no row of it is checked."""
    try:
        out = np.asarray(fn(*args), dtype=np.float64)
        if out.shape == shape:
            return out
        report.add(f"{name} returned shape {out.shape}, expected {shape}")
    except Exception as exc:        # a user-supplied function: any failure is a finding
        report.add(f"{name} raised {type(exc).__name__}: {exc}")
    return np.zeros((0,) + shape[1:])


def validate(spec: GameSpec, grid_resolution: Optional[int] = None,
             n_random: int = 100, seed: int = 20240) -> ValidationReport:
    """Probe kernels, rewards and scalars; report every violated invariant.

    Each kernel and reward function is called once over all probes.  Never
    raises: a report naming each bad row/value is returned instead, so
    callers can surface all problems at once.  Past MAX_REPORTED issues,
    the remaining probes are skipped.
    """
    report = ValidationReport()
    d = spec.discount
    if not (0.0 <= d <= 1.0):
        report.add(f"discount must lie in [0, 1], got {d}")
    if spec.infinite_horizon and not d < 1.0:
        report.add("discount must be < 1 for an infinite horizon")
    if spec.horizon is not None and spec.horizon < 1:
        report.add(f"finite horizon must be >= 1, got {spec.horizon}")
    for what, vec in (("leader belief", spec.initial_leader_belief),
                      ("mean field", spec.initial_mean_field)):
        for _, why in _row_faults(vec[None], tol=1e-9):
            report.add(f"initial {what} is not a distribution: {why}")

    n_l, n_f = spec.n_leader_states, spec.n_follower_states
    n_al, n_af = spec.n_leader_actions, spec.n_follower_actions
    probes = _mean_field_probes(spec, grid_resolution, n_random, seed)
    gammas = _probe_gammas(n_f, n_af)
    P = report.probes = len(probes)
    ql = _tabulated(report, "leader kernel", spec.leader_kernel, (probes,), (P, n_l, n_al, n_l))
    qf = _tabulated(report, "follower kernel", spec.follower_kernel, (probes,),
                    (P, n_l, n_f, n_al, n_af, n_f))
    rf = _tabulated(report, "follower reward", spec.follower_reward, (probes,),
                    (P, n_l, n_f, n_al, n_af))
    rl = _tabulated(report, "leader reward", spec.leader_reward, (probes[:, None], gammas),
                    (P, len(gammas), n_l, n_al))
    # Findings per probe, keyed so that sorting restores the order of a
    # scan over (x_l, a_l): leader kernel row, then (x_f, a_f) kernel row
    # and reward, then the leader reward per probe prescription.
    found = [[] for _ in range(P)]
    for (pz, xl, al), why in _row_faults(ql):
        found[pz].append(((xl, al, 0), f"leader kernel row (a^l={al}, x^l={xl})"
                                        f" at probe {pz}: {why}"))
    for (pz, xl, xf, al, af), why in _row_faults(qf):
        found[pz].append(((xl, al, 1, xf, af, 0),
                          f"follower kernel row (x^l={xl}, x^f={xf}, a^l={al}, a^f={af})"
                          f" at probe {pz}: {why}"))
    for pz, xl, xf, al, af in zip(*np.nonzero(~np.isfinite(rf))):
        found[pz].append(((xl, al, 1, xf, af, 1),
                          f"follower reward (x^l={xl}, x^f={xf}, a^l={al}, a^f={af})"
                          f" at probe {pz} is {float(rf[pz, xl, xf, al, af])}"))
    for pz, g, xl, al in zip(*np.nonzero(~np.isfinite(rl))):
        found[pz].append(((xl, al, 2, g), f"leader reward (x^l={xl}, a^l={al}) at probe {pz}"
                                          f" is {float(rl[pz, g, xl, al])}"))
    for issues in found:
        if len(report.issues) >= MAX_REPORTED:
            report.add("... further issues suppressed")
            break
        report.issues.extend(msg for _, msg in sorted(issues))
    return report


def spec_hash(spec: GameSpec) -> str:
    """Deterministic fingerprint of the game data.

    Kernels and rewards are functions of the mean field, so they are
    fingerprinted by value on a fixed probe set; any parameter change that
    alters behaviour anywhere on the probes changes the hash.
    """
    n_f = spec.n_follower_states
    rng = np.random.default_rng(1234321)
    probes = np.array([*np.eye(n_f), np.full(n_f, 1.0 / n_f),
                       *(rng.dirichlet(np.ones(n_f)) for _ in range(8))])
    gammas = _probe_gammas(n_f, spec.n_follower_actions)

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
    # Per probe: Q^f, Q^l, R^f, then R^l in (x_l, a_l, probe prescription) order.
    tensors = [spec.follower_kernel(probes), spec.leader_kernel(probes),
               spec.follower_reward(probes),
               np.moveaxis(spec.leader_reward(probes[:, None], gammas), 1, -1)]
    h = hashlib.sha256()
    h.update(json.dumps(payload, sort_keys=True, default=repr).encode())
    for p in range(len(probes)):
        for tensor in tensors:
            h.update(np.asarray(tensor[p], dtype=np.float64).tobytes())
    return h.hexdigest()[:16]
