"""Array-form games against the scalar definitions they replace.

The scalar kernels and rewards below are the index-tuple definitions the
built-in games and JSON tables had before they became array functions.
Wrapped by ``GameSpec.from_callables`` they must give bit-identical
tensors, so solver results and ``spec_hash`` do not move.
"""

from pathlib import Path

import numpy as np
import pytest

import stackmfg as s
from stackmfg.game import _mean_field_probes
from stackmfg.gamefile import _affine_table, load_game_dict, load_game_file
from conftest import (random_prescription, random_stochastic_spec, toy_spec,
                      toy_spec_two_leader_states)

TINY_GAME = Path(__file__).resolve().parent.parent / "sample_games" / "tiny.json"


def scalar_infection(p):
    prices = np.array(p.subsidy_grid)
    k, q, c = p.k, p.q, p.c

    def follower_kernel(z, xl, xf, al, af):
        if af == 1:
            return np.array([1.0, 0.0])
        if xf == 1:
            return np.array([0.0, 1.0])
        w = q * z[1]
        return np.array([1.0 - w, w])

    def leader_kernel(z, al, xl):
        return np.array([1.0])

    def follower_reward(z, xl, xf, al, af):
        return -k * xf - prices[al] * af

    def leader_reward(z, xl, al, gamma_f):
        welfare = 0.0
        for xf in range(2):
            for af in range(2):
                welfare += z[xf] * gamma_f[xf, af] * (-k * xf - prices[al] * af)
        return welfare + (prices[al] - c)

    return dict(follower_kernel=follower_kernel, leader_kernel=leader_kernel,
                follower_reward=follower_reward, leader_reward=leader_reward)


def scalar_tech(p):
    prices = np.array(p.price_grid)
    vals = (-1.0, 1.0)

    def follower_kernel(z, xl, xf, al, af):
        flip = p.p1 if af == xf else p.p2
        row = np.zeros(2)
        row[xf] = 1.0 - flip
        row[1 - xf] = flip
        return row

    def leader_kernel(z, al, xl):
        return np.array([1.0])

    def follower_reward(z, xl, xf, al, af):
        x, a = vals[xf], vals[af]
        cost = prices[al] if af == 1 else p.c_minus1
        return x * a + (2.0 * z[1] - 1.0) * a - cost

    def leader_reward(z, xl, al, gamma_f):
        buying = z[1] * gamma_f[1, 1] + z[0] * gamma_f[0, 1]
        return prices[al] * buying

    return dict(follower_kernel=follower_kernel, leader_kernel=leader_kernel,
                follower_reward=follower_reward, leader_reward=leader_reward)


def scalar_gamefile(cfg):
    """Per-entry ``c + w @ z`` over the config's tables."""
    n_f, n_l = len(cfg["follower_states"]), len(cfg["leader_states"])
    n_af, n_al = len(cfg["follower_actions"]), len(cfg["leader_actions"])
    fk_c, fk_w = _affine_table(cfg["follower_kernel"], (n_l, n_f, n_al, n_af, n_f), n_f, "fk")
    lk_c, lk_w = _affine_table(cfg["leader_kernel"], (n_l, n_al, n_l), n_f, "lk")
    fr_c, fr_w = _affine_table(cfg["follower_reward"], (n_l, n_f, n_al, n_af), n_f, "fr")
    lr_c, lr_w = _affine_table(cfg["leader_reward"], (n_l, n_al), n_f, "lr")
    welfare = bool(cfg.get("leader_reward_includes_welfare", False))

    def follower_kernel(z, xl, xf, al, af):
        return fk_c[xl, xf, al, af] + fk_w[xl, xf, al, af] @ np.asarray(z)

    def leader_kernel(z, al, xl):
        return lk_c[xl, al] + lk_w[xl, al] @ np.asarray(z)

    def follower_reward(z, xl, xf, al, af):
        return fr_c[xl, xf, al, af] + float(fr_w[xl, xf, al, af] @ np.asarray(z))

    def leader_reward(z, xl, al, gamma_f):
        z = np.asarray(z)
        total = lr_c[xl, al] + float(lr_w[xl, al] @ z)
        if welfare:
            for xf in range(n_f):
                for af in range(n_af):
                    total += z[xf] * gamma_f[xf, af] * follower_reward(z, xl, xf, al, af)
        return total

    return dict(follower_kernel=follower_kernel, leader_kernel=leader_kernel,
                follower_reward=follower_reward, leader_reward=leader_reward)


def affine_config(seed, welfare):
    """Random 2-leader, 3-follower-type tables with every entry affine in z,
    kernel rows included."""
    rng = np.random.default_rng(seed)
    n_l, n_f, n_al, n_af = 2, 3, 2, 2

    def table(shape):
        const, coef = rng.normal(size=shape), rng.normal(size=shape + (n_f,))
        coef[rng.random(coef.shape) < 0.2] = 0.0
        flat = [{"const": float(c), "z": w.tolist()}
                for c, w in zip(const.ravel(), coef.reshape(-1, n_f))]
        return np.array(flat, dtype=object).reshape(shape).tolist()

    return {"name": "affine", "follower_states": ["f0", "f1", "f2"],
            "leader_states": ["lo", "hi"], "follower_actions": ["a0", "a1"],
            "leader_actions": ["b0", "b1"], "discount": 0.9, "horizon": 3,
            "initial_leader_belief": [0.5, 0.5], "initial_mean_field": [0.4, 0.3, 0.3],
            "follower_kernel": table((n_l, n_f, n_al, n_af, n_f)),
            "leader_kernel": table((n_l, n_al, n_l)),
            "follower_reward": table((n_l, n_f, n_al, n_af)),
            "leader_reward": table((n_l, n_al)),
            "leader_reward_includes_welfare": welfare}


def from_scalar(spec, functions):
    return s.GameSpec.from_callables(
        follower_states=spec.follower_states, leader_states=spec.leader_states,
        follower_actions=spec.follower_actions, leader_actions=spec.leader_actions,
        discount=spec.discount, horizon=spec.horizon,
        initial_leader_belief=spec.initial_leader_belief,
        initial_mean_field=spec.initial_mean_field, name=spec.name,
        metadata=spec.metadata, **functions)


def builtin(builder, scalar, params):
    return lambda: (builder(params), scalar(params))


def json_game(cfg):
    return lambda: (load_game_dict(cfg), scalar_gamefile(cfg))


CASES = {
    "infection": builtin(s.build_infection_game, scalar_infection, s.InfectionParams()),
    "infection-params": builtin(s.build_infection_game, scalar_infection,
                                s.InfectionParams(k=0.5, q=0.3, lam=0.1, delta=0.95,
                                                  subsidy_points=5, c_max=0.5)),
    "tech": builtin(s.build_tech_adoption_game, scalar_tech, s.TechAdoptionParams()),
    "tech-params": builtin(s.build_tech_adoption_game, scalar_tech,
                           s.TechAdoptionParams(p1=0.05, p2=0.45, c_minus1=0.3,
                                                price_points=7)),
    "tiny": lambda: (load_game_file(TINY_GAME),
                     scalar_gamefile(load_game_file(TINY_GAME).metadata["config"])),
    "affine": json_game(affine_config(0, welfare=False)),
    "affine-welfare": json_game(affine_config(1, welfare=True)),
}


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("case", sorted(CASES))
def test_array_game_matches_scalar_definition(case):
    """Every tensor and leader reward, at the validator's probes and at
    random mean fields, against pure, mixed and partly pure follower
    prescriptions, in both broadcast directions."""
    spec, functions = CASES[case]()
    ref = from_scalar(spec, functions)
    n_f, n_af = spec.n_follower_states, spec.n_follower_actions
    rng = np.random.default_rng(len(case))
    Z = np.concatenate([_mean_field_probes(spec, None, 100, 20240),
                        rng.dirichlet(np.ones(n_f), size=40)])
    for name in ("follower_kernel", "leader_kernel", "follower_reward"):
        assert_bits_equal(getattr(spec, name)(Z), getattr(ref, name)(Z))
        assert_bits_equal(getattr(spec, name)(Z[7]), getattr(ref, name)(Z[7]))
    Gf = np.array([random_prescription(rng, n_f, n_af) for _ in range(3)]
                  + [np.eye(n_af)[rng.integers(n_af, size=n_f)] for _ in range(2)]
                  + [np.full((n_f, n_af), 1.0 / n_af)])
    Gf[0, 0] = np.eye(n_af)[1]
    assert_bits_equal(spec.leader_reward(Z[:, None], Gf), ref.leader_reward(Z[:, None], Gf))
    assert_bits_equal(spec.leader_reward(Z[:len(Gf)], Gf), ref.leader_reward(Z[:len(Gf)], Gf))
    assert_bits_equal(spec.leader_reward(Z[3], Gf[1]), ref.leader_reward(Z[3], Gf[1]))
    assert s.spec_hash(spec) == s.spec_hash(ref)


# Every (seed, shape) the suite builds, and the ranges its random draws span:
# seed % 17 or % 13 with 1 to 3 follower and leader types.
TEST_GAMES = {
    "toy": [dict(seed=seed) for seed in range(26)]
           + [dict(seed=1, n_leader_actions=3), dict(seed=2, n_leader_actions=3),
              dict(seed=3, n_leader_actions=4), dict(seed=7, n_leader_actions=1)],
    "toy-two-leader-states": [dict(seed=seed) for seed in (0, 1, 2, 3, 11)],
    "random-stochastic": [dict(seed=seed, n_f=n_f, n_l=n_l) for seed in range(17)
                          for n_f in (1, 2, 3) for n_l in (1, 2, 3)]
                         + [dict(seed=5, n_l=3, n_al=3), dict(seed=2, n_f=4, n_l=1, n_af=3),
                            dict(seed=8, leader_drift=0.8)],
}
BUILDERS = {"toy": toy_spec, "toy-two-leader-states": toy_spec_two_leader_states,
            "random-stochastic": random_stochastic_spec}


@pytest.mark.parametrize("family", sorted(TEST_GAMES))
def test_test_games_match_their_scalar_definition(family):
    """The suite's test games are array functions; each one's tensors equal
    those its scalar callables tabulate to, bit for bit, at the lattice
    vertices, the barycentre and random mean fields, batched and single,
    against pure and mixed follower prescriptions in both broadcast
    directions, and so do their ``spec_hash``es."""
    for kwargs in TEST_GAMES[family]:
        spec = BUILDERS[family](**kwargs)
        ref = BUILDERS[family](callables=True, **kwargs)
        n_f, n_af = spec.n_follower_states, spec.n_follower_actions
        rng = np.random.default_rng(kwargs["seed"])
        Z = np.concatenate([np.eye(n_f), np.full((1, n_f), 1.0 / n_f),
                            rng.dirichlet(np.ones(n_f), size=6)])
        for name in ("follower_kernel", "leader_kernel", "follower_reward"):
            assert_bits_equal(getattr(spec, name)(Z), getattr(ref, name)(Z))
            assert_bits_equal(getattr(spec, name)(Z[-1]), getattr(ref, name)(Z[-1]))
        Gf = np.array([random_prescription(rng, n_f, n_af),
                       np.eye(n_af)[rng.integers(n_af, size=n_f)]])
        assert_bits_equal(spec.leader_reward(Z[:, None], Gf), ref.leader_reward(Z[:, None], Gf))
        assert_bits_equal(spec.leader_reward(Z[:2], Gf), ref.leader_reward(Z[:2], Gf))
        assert_bits_equal(spec.leader_reward(Z[0], Gf), ref.leader_reward(Z[0], Gf))
        assert_bits_equal(spec.leader_reward(Z[-1], Gf[0]), ref.leader_reward(Z[-1], Gf[0]))
        assert s.spec_hash(spec) == s.spec_hash(ref)
