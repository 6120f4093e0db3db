"""Shared builders for toy and randomized test games."""

import numpy as np
import pytest

import stackmfg as s
from stackmfg.gamefile import load_game_dict
from stackmfg.games import _constant
from stackmfg.stage import StageEngine


def _game(callables, scalar, arrays, **fields):
    """The spec of the array functions ``arrays``, or with ``callables`` that
    of the scalar functions ``scalar`` they equal, bit for bit
    (``tests/test_game_arrays.py``)."""
    if callables:
        return s.GameSpec.from_callables(**scalar, **fields)
    return s.GameSpec(**arrays, **fields)


def _batch(Z, Gf):
    """The leading axes of mean fields ``Z`` broadcast against those of
    follower prescriptions ``Gf``."""
    return np.broadcast_shapes(np.shape(Z)[:-1], np.shape(Gf)[:-2])


def toy_spec(horizon=2, discount=0.9, n_leader_actions=2, seed=3,
             z_scale=0.3, name="toy", callables=False):
    """Random 2-type, grid-closed toy game with a single leader state.

    Follower transitions are deterministic per (type, leader action, own
    action), so the mean-field update maps lattice points to lattice points
    and the solver can be compared exactly against tree enumerations.
    """
    rng = np.random.default_rng(seed)
    dest = rng.integers(0, 2, size=(2, n_leader_actions, 2))
    rf = rng.normal(size=(2, n_leader_actions, 2))
    rl = rng.normal(size=(n_leader_actions,))
    rl_z = rng.normal(size=(n_leader_actions,))

    def follower_kernel(z, xl, xf, al, af):
        row = np.zeros(2)
        row[dest[xf, al, af]] = 1.0
        return row

    def leader_kernel(z, al, xl):
        return np.array([1.0])

    def follower_reward(z, xl, xf, al, af):
        return rf[xf, al, af] + z_scale * z[1] * af

    def leader_reward(z, xl, al, gamma_f):
        return rl[al] + rl_z[al] * z[1] + 0.5 * gamma_f[0, 1]

    def follower_reward_array(Z):
        zf = (z_scale * np.asarray(Z, dtype=np.float64)[..., 1])[..., None, None, None, None]
        return rf + zf * np.arange(2)

    def leader_reward_array(Z, Gf):
        z1 = np.asarray(Z, dtype=np.float64)[..., 1, None]
        g01 = np.asarray(Gf, dtype=np.float64)[..., 0, 1, None]
        return (rl + rl_z * z1 + 0.5 * g01)[..., None, :]

    return _game(
        callables,
        dict(leader_kernel=leader_kernel, follower_kernel=follower_kernel,
             follower_reward=follower_reward, leader_reward=leader_reward),
        dict(leader_kernel=lambda Z: _constant(np.ones((1, n_leader_actions, 1)), Z),
             follower_kernel=lambda Z: _constant(np.eye(2)[dest][None], Z),
             follower_reward=follower_reward_array, leader_reward=leader_reward_array),
        follower_states=("a", "b"), leader_states=("L",),
        follower_actions=("0", "1"),
        leader_actions=tuple(str(i) for i in range(n_leader_actions)),
        discount=discount, horizon=horizon,
        initial_leader_belief=[1.0], initial_mean_field=[0.5, 0.5], name=name)


def toy_spec_two_leader_states(horizon=2, discount=0.9, seed=11, callables=False):
    """Grid-closed toy with an informative leader type.

    The leader kernel is a deterministic per-(type, action) map and the
    follower kernel ignores the leader side entirely, so pure play keeps
    both the belief and the mean field on coarse lattices.
    """
    rng = np.random.default_rng(seed)
    fdest = rng.integers(0, 2, size=(2, 2))            # (xf, af)
    ldest = rng.integers(0, 2, size=(2, 2))            # (xl, al)
    rf = rng.normal(size=(2, 2, 2))                    # (xf, al, af)
    rl = rng.normal(size=(2, 2))                       # (xl, al)

    def follower_kernel(z, xl, xf, al, af):
        row = np.zeros(2)
        row[fdest[xf, af]] = 1.0
        return row

    def leader_kernel(z, al, xl):
        row = np.zeros(2)
        row[ldest[xl, al]] = 1.0
        return row

    def follower_reward(z, xl, xf, al, af):
        return rf[xf, al, af] + 0.2 * z[1] * (xl - 0.5)

    def leader_reward(z, xl, al, gamma_f):
        return rl[xl, al] + 0.4 * z[1]

    def follower_reward_array(Z):
        zl = (0.2 * np.asarray(Z, dtype=np.float64)[..., 1])[..., None, None, None, None]
        return rf + zl * (np.arange(2) - 0.5)[:, None, None, None]

    def leader_reward_array(Z, Gf):
        out = rl + (0.4 * np.asarray(Z, dtype=np.float64)[..., 1])[..., None, None]
        return np.broadcast_to(out, _batch(Z, Gf) + rl.shape).copy()

    kernel = np.broadcast_to(np.eye(2)[fdest][None, :, None], (2, 2, 2, 2, 2))
    return _game(
        callables,
        dict(leader_kernel=leader_kernel, follower_kernel=follower_kernel,
             follower_reward=follower_reward, leader_reward=leader_reward),
        dict(leader_kernel=lambda Z: _constant(np.eye(2)[ldest], Z),
             follower_kernel=lambda Z: _constant(kernel, Z),
             follower_reward=follower_reward_array, leader_reward=leader_reward_array),
        follower_states=("a", "b"), leader_states=("lo", "hi"),
        follower_actions=("0", "1"), leader_actions=("0", "1"),
        discount=discount, horizon=horizon,
        initial_leader_belief=[0.5, 0.5], initial_mean_field=[0.5, 0.5],
        name="toy2l")


def toy_joint_grid(spec, z_res=4, pi_res=2):
    pi_res = pi_res if spec.n_leader_states > 1 else 1
    return s.JointGrid(pi_grid=s.build_grid(spec.n_leader_states, pi_res),
                       z_grid=s.build_grid(spec.n_follower_states, z_res))


def solve_clean_tiny(seed, horizon=2, n_leader_actions=2, two_leader_states=False,
                     z_res=4):
    """Build a random tiny game whose solve is pure everywhere, or None.

    Games where some grid point needs the mixed check (or has no fixed
    point at all) are rejected so oracle comparisons stay in the pure world.
    """
    if two_leader_states:
        spec = toy_spec_two_leader_states(horizon=horizon, seed=seed)
    else:
        spec = toy_spec(horizon=horizon, seed=seed,
                        n_leader_actions=n_leader_actions)
    joint = toy_joint_grid(spec, z_res=z_res)
    try:
        gen, tables = s.backward_pass(spec, joint)
    except s.NoEquilibriumError:
        return None
    for policy in gen.stages:
        for sol in policy.solutions:
            if sol.diagnostics.used_damped_fallback:
                return None
            if sol.prescription.pure_actions() is None:
                return None
    return spec, joint, gen, tables


def no_equilibrium_at(monkeypatch, state, sweep=1, nan=False):
    """Make the stage engine's ``sweep``-th sweep (1-based) find no equilibrium
    at its state ``state`` and only there.

    Every pure pair at that state fails the follower fixed-point test and its
    rows are left out of the mixed check; with ``nan``, one fixed pair there
    has a NaN leader objective instead and every other pair keeps its true one.
    """
    evaluate_pure, mixed_fixed = StageEngine._evaluate_pure, StageEngine._mixed_fixed
    sweeps = []

    def patched_pure(self, table):
        fv, lead, lv, fixed = evaluate_pure(self, table)
        sweeps.append(None)
        if len(sweeps) == sweep:
            first = state * len(self.leaders)
            if nan:
                lead[0, first], fixed[0, first] = np.nan, True
            else:
                fixed[:, first:first + len(self.leaders)] = False
        return fv, lead, lv, fixed

    def patched_mixed(self, rows, table):
        if len(sweeps) == sweep:
            rows = rows[rows // len(self.leaders) != state]
        return mixed_fixed(self, rows, table)

    monkeypatch.setattr(StageEngine, "_evaluate_pure", patched_pure)
    monkeypatch.setattr(StageEngine, "_mixed_fixed", patched_mixed)


def signal_family_spec():
    """Finite game with 2 leader and 3 follower types, 2 actions per side.

    Dirichlet kernels and mean-field-affine rewards drawn from seed 0, in the
    draw order of the benchmark's signal family; at pi-res 2 / z-res 2 its
    backward pass needs the mixed check (which certifies no row there).
    """
    n_l, n_f, n_al, n_af = 2, 3, 2, 2
    rng = np.random.default_rng(0)
    fk = rng.dirichlet(np.ones(n_f), size=(n_l, n_f, n_al, n_af))
    lk = rng.dirichlet(np.ones(n_l), size=(n_l, n_al))
    fr_c = rng.normal(size=(n_l, n_f, n_al, n_af))
    fr_w = rng.normal(scale=0.5, size=(n_l, n_f, n_al, n_af, n_f))
    lr_c = rng.normal(size=(n_l, n_al))
    lr_w = rng.normal(scale=0.5, size=(n_l, n_al, n_f))

    def affine(const, coef):
        return {"const": float(const), "z": coef.tolist()}

    return load_game_dict({
        "name": "signal", "follower_states": ["f0", "f1", "f2"],
        "leader_states": ["lo", "hi"], "follower_actions": ["a0", "a1"],
        "leader_actions": ["b0", "b1"], "discount": 0.9, "horizon": 4,
        "initial_leader_belief": [0.5, 0.5], "initial_mean_field": [0.4, 0.3, 0.3],
        "follower_kernel": fk.tolist(), "leader_kernel": lk.tolist(),
        "follower_reward": [[[[affine(fr_c[xl, xf, al, af], fr_w[xl, xf, al, af])
                               for af in range(n_af)] for al in range(n_al)]
                             for xf in range(n_f)] for xl in range(n_l)],
        "leader_reward": [[affine(lr_c[xl, al], lr_w[xl, al]) for al in range(n_al)]
                          for xl in range(n_l)]})


def random_distribution(rng, n):
    return rng.dirichlet(np.ones(n))


def random_prescription(rng, n_states, n_actions):
    return np.stack([random_distribution(rng, n_actions) for _ in range(n_states)])


def random_stochastic_spec(seed, n_f=2, n_l=2, n_af=2, n_al=2, discount=0.9,
                           horizon=3, leader_drift=0.0, callables=False):
    """Fully stochastic random game (not grid-closed); for dynamics tests.

    With ``leader_drift`` > 0 the leader kernel moves with the mean field:
    each row shifts by ``leader_drift * z[0]`` toward its own reversal."""
    rng = np.random.default_rng(seed)
    fk = rng.dirichlet(np.ones(n_f), size=(n_l, n_f, n_al, n_af))
    lk = rng.dirichlet(np.ones(n_l), size=(n_l, n_al))
    rf = rng.normal(size=(n_l, n_f, n_al, n_af))
    rl = rng.normal(size=(n_l, n_al))

    def follower_kernel(z, xl, xf, al, af):
        return fk[xl, xf, al, af]

    def leader_kernel(z, al, xl):
        return lk[xl, al] + leader_drift * z[0] * (lk[xl, al, ::-1] - lk[xl, al])

    def follower_reward(z, xl, xf, al, af):
        return rf[xl, xf, al, af] + 0.1 * z[0]

    def leader_reward(z, xl, al, gamma_f):
        return rl[xl, al]

    def leader_kernel_array(Z):
        drift = (leader_drift * np.asarray(Z, dtype=np.float64)[..., 0])[..., None, None, None]
        return lk + drift * (lk[..., ::-1] - lk)

    def follower_reward_array(Z):
        return rf + (0.1 * np.asarray(Z, dtype=np.float64)[..., 0])[..., None, None, None, None]

    return _game(
        callables,
        dict(leader_kernel=leader_kernel, follower_kernel=follower_kernel,
             follower_reward=follower_reward, leader_reward=leader_reward),
        dict(leader_kernel=leader_kernel_array, follower_kernel=lambda Z: _constant(fk, Z),
             follower_reward=follower_reward_array,
             leader_reward=lambda Z, Gf: np.broadcast_to(rl, _batch(Z, Gf) + rl.shape).copy()),
        follower_states=tuple(f"f{i}" for i in range(n_f)),
        leader_states=tuple(f"l{i}" for i in range(n_l)),
        follower_actions=tuple(f"a{i}" for i in range(n_af)),
        leader_actions=tuple(f"b{i}" for i in range(n_al)),
        discount=discount, horizon=horizon,
        initial_leader_belief=random_distribution(rng, n_l),
        initial_mean_field=random_distribution(rng, n_f), name=f"rand{seed}")


@pytest.fixture(scope="session")
def infection_spec():
    return s.build_infection_game()


@pytest.fixture(scope="session")
def tech_spec():
    return s.build_tech_adoption_game()
