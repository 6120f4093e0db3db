"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the workload
seed, so one seed always yields the same inputs.  The program under test
receives only what these functions produce: command-line arguments and
JSON game files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# The signal game's kernels and rewards come from this fixed family seed,
# and the workload seed only draws the game's starting public state.  With
# tables drawn from the workload seed, the number of grid points that need
# the damped mixed fallback (each costing up to 500 pair rebuilds) swung the
# solve time by a factor of five between seeds, which would make the
# workload's run-to-run spread a property of the seed rather than of the
# program.  The family seed is the first one tried, not one picked for its
# fallback count: its solve uses the fallback at several grid points.
SIGNAL_TABLE_SEED = 0


def write_json(path, payload) -> str:
    """Write a generated JSON input and return a short sha256 of its bytes."""
    data = (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()[:16]


def interior_two_state(rng) -> list:
    """A two-state distribution drawn uniformly off the lattice, in the interior."""
    x = float(rng.uniform(0.05, 0.95))
    return [1.0 - x, x]


def query_starts(rng, n_queries: int) -> list:
    """Off-lattice interior starting mean fields, one per export query."""
    return [interior_two_state(rng) for _ in range(n_queries)]


def _affine(const, coef) -> dict:
    return {"const": float(const), "z": [float(v) for v in coef]}


def signal_game(seed: int) -> dict:
    """Finite game with an informative leader: 2 leader types, 3 follower types.

    Two actions per side, Dirichlet-random kernels, rewards affine in the
    mean field, discount 0.9, horizon 4.  The tables come from
    ``SIGNAL_TABLE_SEED``; ``seed`` draws the initial belief and mean field,
    which move the forward pass through off-lattice public states.
    """
    n_l, n_f, n_al, n_af = 2, 3, 2, 2
    tables = np.random.default_rng(SIGNAL_TABLE_SEED)
    fk = tables.dirichlet(np.ones(n_f), size=(n_l, n_f, n_al, n_af))
    lk = tables.dirichlet(np.ones(n_l), size=(n_l, n_al))
    fr_c = tables.normal(size=(n_l, n_f, n_al, n_af))
    fr_w = tables.normal(scale=0.5, size=(n_l, n_f, n_al, n_af, n_f))
    lr_c = tables.normal(size=(n_l, n_al))
    lr_w = tables.normal(scale=0.5, size=(n_l, n_al, n_f))

    start = np.random.default_rng(seed)
    pi0 = start.dirichlet(np.ones(n_l))
    z0 = start.dirichlet(np.ones(n_f))
    return {
        "name": f"signal-{seed}",
        "follower_states": ["f0", "f1", "f2"],
        "leader_states": ["lo", "hi"],
        "follower_actions": ["a0", "a1"],
        "leader_actions": ["b0", "b1"],
        "discount": 0.9,
        "horizon": 4,
        "initial_leader_belief": pi0.tolist(),
        "initial_mean_field": z0.tolist(),
        "follower_kernel": fk.tolist(),
        "leader_kernel": lk.tolist(),
        "follower_reward": [[[[_affine(fr_c[xl, xf, al, af], fr_w[xl, xf, al, af])
                               for af in range(n_af)] for al in range(n_al)]
                             for xf in range(n_f)] for xl in range(n_l)],
        "leader_reward": [[_affine(lr_c[xl, al], lr_w[xl, al]) for al in range(n_al)]
                          for xl in range(n_l)],
    }


def tiny_game(rng, n_leader_actions: int, name: str) -> dict:
    """Grid-closed tiny game: one leader state, 0/1 follower kernels.

    Follower transitions are deterministic per (type, leader action, own
    action) and rewards are affine in the mean field, so lattice points map
    to lattice points and the oracle can enumerate the game exactly.  The
    start is an interior point of the z-res 4 lattice.
    """
    dest = rng.integers(0, 2, size=(2, n_leader_actions, 2))
    rf = rng.normal(size=(2, n_leader_actions, 2))
    rl = rng.normal(size=n_leader_actions)
    rl_z = rng.normal(size=n_leader_actions)
    z_scale = 0.3
    infected = float(rng.integers(1, 4)) / 4.0
    z0 = [1.0 - infected, infected]
    return {
        "name": name,
        "follower_states": ["a", "b"],
        "leader_states": ["L"],
        "follower_actions": ["0", "1"],
        "leader_actions": [str(a) for a in range(n_leader_actions)],
        "discount": 0.9,
        "horizon": 2,
        "initial_leader_belief": [1.0],
        "initial_mean_field": z0,
        "follower_kernel": [[[[[1.0 if n == dest[xf, al, af] else 0.0 for n in range(2)]
                               for af in range(2)] for al in range(n_leader_actions)]
                             for xf in range(2)]],
        "leader_kernel": [[[1.0] for _ in range(n_leader_actions)]],
        "follower_reward": [[[[_affine(rf[xf, al, af], [0.0, z_scale * af])
                               for af in range(2)] for al in range(n_leader_actions)]
                             for xf in range(2)]],
        "leader_reward": [[_affine(rl[al], [0.0, rl_z[al]])
                           for al in range(n_leader_actions)]],
        "initial_points": [{"pi": [1.0], "z": z0}],
    }
