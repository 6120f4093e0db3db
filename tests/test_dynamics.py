"""Mean-field and belief transition maps."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackmfg as s
from stackmfg.dynamics import belief_batch, mean_field_batch
from stackmfg.gamefile import load_game_file
from conftest import random_prescription, random_stochastic_spec, signal_family_spec


def uniform_prescription(spec):
    return s.Prescription(
        leader=np.full((spec.n_leader_states, spec.n_leader_actions),
                       1.0 / spec.n_leader_actions),
        follower=np.full((spec.n_follower_states, spec.n_follower_actions),
                         1.0 / spec.n_follower_actions))


def test_tech_frozen_step():
    # All prefer product 1 and buy it: switching probability p1=0.1 moves
    # exactly that fraction away, frozen from the closed form.
    spec = s.build_tech_adoption_game(s.TechAdoptionParams(p1=0.1, p2=0.3))
    gamma = s.Prescription(leader=np.array([[1.0] + [0.0] * 20]),
                           follower=np.array([[1.0, 0.0], [0.0, 1.0]]))
    z_next = s.mean_field_step([1.0], [0.0, 1.0], gamma, spec)
    assert z_next[1] == pytest.approx(0.9, abs=1e-15)


def test_infection_frozen_step(infection_spec):
    # Do-nothing population at z=(0.5,0.5), q=0.9: explicit four-term sum.
    # healthy stays w.p. 1-0.45, infected stays put: z'(infected)=0.725.
    gamma = s.Prescription(leader=np.array([[1.0] + [0.0] * 20]),
                           follower=np.array([[1.0, 0.0], [1.0, 0.0]]))
    z_next = s.mean_field_step([1.0], [0.5, 0.5], gamma, infection_spec)
    brute = 0.5 * (0.9 * 0.5) + 0.5 * 1.0
    assert brute == 0.725
    assert z_next[1] == pytest.approx(0.725, abs=1e-15)


def test_single_follower_state_degenerate():
    spec = random_stochastic_spec(0, n_f=1, n_l=1)
    gamma = uniform_prescription(spec)
    z_next = s.mean_field_step([1.0], [1.0], gamma, spec)
    assert z_next == pytest.approx([1.0])


def test_tech_closed_form_thousand_draws():
    """Mean-field step matches the two-state adoption closed form to 1e-12."""
    params = s.TechAdoptionParams(p1=0.15, p2=0.35)
    spec = s.build_tech_adoption_game(params)
    rng = np.random.default_rng(77)
    p1, p2 = params.p1, params.p2
    for _ in range(1000):
        z = rng.dirichlet([1.0, 1.0])
        gf = random_prescription(rng, 2, 2)
        gl = random_prescription(rng, 1, spec.n_leader_actions)
        gamma = s.Prescription(leader=gl, follower=gf)
        z_next = s.mean_field_step([1.0], z, gamma, spec)
        closed = 1.0 - (z[1] * gf[1, 0] * p2 + z[1] * gf[1, 1] * p1
                        + z[0] * gf[0, 0] * (1 - p1) + z[0] * gf[0, 1] * (1 - p2))
        assert abs(z_next[1] - closed) <= 1e-12


def test_belief_degenerate_leader():
    spec = random_stochastic_spec(1, n_l=1)
    out = s.belief_step([1.0], spec.initial_mean_field, np.array([[0.6, 0.4]]), 0, spec)
    assert out == pytest.approx([1.0])


def test_belief_uninformative_action_is_pushforward():
    spec = random_stochastic_spec(2, n_l=2)
    pi = np.array([0.3, 0.7])
    z = spec.initial_mean_field
    gl = np.array([[0.5, 0.5], [0.5, 0.5]])
    out = s.belief_step(pi, z, gl, 0, spec)
    expected = sum(pi[x] * np.asarray(spec.leader_kernel(z)[x, 0]) for x in range(2))
    assert out == pytest.approx(expected, abs=1e-14)


def test_belief_bayes_frozen():
    # pi=(0.5,0.5), action taken surely by type 0 and half the time by type 1,
    # identity kernel: posterior (2/3, 1/3) by direct Bayes arithmetic.
    def identity_kernel(z, al, xl):
        row = np.zeros(2)
        row[xl] = 1.0
        return row

    base = random_stochastic_spec(3, n_l=2)
    spec = s.GameSpec.from_callables(
        follower_states=base.follower_states, leader_states=base.leader_states,
        follower_actions=base.follower_actions, leader_actions=base.leader_actions,
        leader_kernel=identity_kernel,
        follower_kernel=lambda z, *idx: base.follower_kernel(z)[idx],
        follower_reward=lambda z, *idx: base.follower_reward(z)[idx],
        leader_reward=lambda z, xl, al, gf: base.leader_reward(z, gf)[xl, al],
        discount=base.discount, horizon=base.horizon,
        initial_leader_belief=base.initial_leader_belief,
        initial_mean_field=base.initial_mean_field)
    gl = np.array([[1.0, 0.0], [0.5, 0.5]])
    out = s.belief_step([0.5, 0.5], spec.initial_mean_field, gl, 0, spec)
    assert out == pytest.approx([2 / 3, 1 / 3], abs=1e-15)


def test_belief_zero_probability_action():
    spec = random_stochastic_spec(4, n_l=2)
    gl = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(s.ZeroProbabilityAction):
        s.belief_step([0.5, 0.5], spec.initial_mean_field, gl, 1, spec)
    out, fell_back = s.belief_step_total([0.5, 0.5], spec.initial_mean_field,
                                         gl, 1, spec)
    assert fell_back
    assert out == pytest.approx([0.5, 0.5])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_outputs_are_distributions(seed):
    rng = np.random.default_rng(seed)
    spec = random_stochastic_spec(seed % 17, n_f=int(rng.integers(1, 4)),
                                  n_l=int(rng.integers(1, 4)))
    pi = rng.dirichlet(np.ones(spec.n_leader_states))
    z = rng.dirichlet(np.ones(spec.n_follower_states))
    gamma = s.Prescription(
        leader=random_prescription(rng, spec.n_leader_states, spec.n_leader_actions),
        follower=random_prescription(rng, spec.n_follower_states,
                                     spec.n_follower_actions))
    z_next = s.mean_field_step(pi, z, gamma, spec)
    assert abs(z_next.sum() - 1.0) <= 1e-12
    assert np.min(z_next) >= 0.0
    al = int(rng.integers(spec.n_leader_actions))
    pi_next, _ = s.belief_step_total(pi, z, gamma.leader, al, spec)
    assert abs(pi_next.sum() - 1.0) <= 1e-12
    assert np.min(pi_next) >= 0.0


@given(st.floats(0.1, 100.0), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_belief_scale_invariance(scale, seed):
    """Rescaling the observed action's column leaves the posterior unchanged."""
    rng = np.random.default_rng(seed)
    spec = random_stochastic_spec(seed % 13, n_l=3)
    pi = rng.dirichlet(np.ones(3))
    z = rng.dirichlet(np.ones(spec.n_follower_states))
    gl = random_prescription(rng, 3, spec.n_leader_actions) + 1e-3
    base = s.belief_step(pi, z, gl, 0, spec)
    scaled = gl.copy()
    scaled[:, 0] *= scale
    again = s.belief_step(pi, z, scaled, 0, spec)
    assert again == pytest.approx(base, abs=1e-12)


def test_prescription_validation():
    with pytest.raises(ValueError):
        s.Prescription(leader=np.array([[0.5, 0.4]]), follower=np.array([[1.0]]))
    with pytest.raises(ValueError):
        s.Prescription(leader=np.array([[1.0]]), follower=np.array([[-0.1, 1.1]]))
    p = s.Prescription.pure((1,), (0, 1), 2, 2)
    assert p.pure_actions() == ((1,), (0, 1))


TINY_GAME = Path(__file__).resolve().parent.parent / "sample_games" / "tiny.json"
def signed_zero_kernel(spec):
    """``spec`` with every zero of its follower kernel returned as -0.0."""
    def follower_kernel(z):
        row = np.asarray(spec.follower_kernel(z), dtype=np.float64)
        return np.where(row == 0.0, -0.0, row)
    return dataclasses.replace(spec, follower_kernel=follower_kernel)


BATCH_GAMES = {
    "infection": lambda: s.build_infection_game(),
    "tech": lambda: s.build_tech_adoption_game(s.TechAdoptionParams(price_points=7)),
    "signal": signal_family_spec,
    "tiny": lambda: load_game_file(TINY_GAME),
    "tiny-signed-zeros": lambda: signed_zero_kernel(load_game_file(TINY_GAME)),
}


def batch_prescriptions(rng, n, n_states, n_actions):
    """Pure, mixed and partly pure prescriptions, (n, n_states, n_actions)."""
    out = []
    for k in range(n):
        mat = random_prescription(rng, n_states, n_actions)
        if k % 3 == 0:
            mat = np.eye(n_actions)[rng.integers(n_actions, size=n_states)]
        elif k % 3 == 1:
            mat[0] = np.eye(n_actions)[rng.integers(n_actions)]
        out.append(mat)
    return np.array(out)


@pytest.mark.parametrize("game", sorted(BATCH_GAMES))
def test_batched_mean_field_step_matches_scalar(game):
    """mean_field_batch equals mean_field_step bit for bit (sign of zero too),
    on interior states, a zero belief entry and mean fields on a vertex or an
    edge of the simplex."""
    spec = BATCH_GAMES[game]()
    n_l, n_f = spec.n_leader_states, spec.n_follower_states
    rng = np.random.default_rng(len(game))
    states = [(rng.dirichlet(np.ones(n_l)), rng.dirichlet(np.ones(n_f))) for _ in range(4)]
    states += [(np.eye(n_l)[-1], np.eye(n_f)[0]), (np.eye(n_l)[0], np.eye(n_f)[-1])]
    edge = rng.dirichlet(np.ones(n_f))
    edge[0] = 0.0
    states.append((rng.dirichlet(np.ones(n_l)), edge / edge.sum()))
    for pi, z in states:
        leaders = batch_prescriptions(rng, 4, n_l, spec.n_leader_actions)
        followers = batch_prescriptions(rng, 5, n_f, spec.n_follower_actions)
        kernel = spec.follower_kernel(z)
        out = mean_field_batch(pi, z, leaders[:, None], followers[None], kernel)
        assert out.shape == (4, 5, n_f)
        for i, G in enumerate(leaders):
            for j, Ff in enumerate(followers):
                ref = s.mean_field_step(pi, z, s.Prescription(leader=G, follower=Ff), spec)
                for got in (out[i, j], mean_field_batch(pi, z, G, Ff, kernel)):
                    assert np.array_equal(got, ref)
                    assert np.array_equal(np.signbit(got), np.signbit(ref))


def with_zeros(rng, n, tiny=False):
    """A random distribution with its first entry zero (or 1e-300 when
    ``tiny``, so products with it underflow), unless ``n`` is 1."""
    vec = rng.dirichlet(np.ones(n))
    if n > 1:
        vec[0] = 1e-300 if tiny else 0.0
    return vec / vec.sum()


@pytest.mark.parametrize("game", sorted(BATCH_GAMES))
def test_batched_mean_field_step_broadcasts_states_leaders_and_followers(game):
    """One call over (S, L, F) with the kernel at each of the S mean fields
    equals mean_field_step bit for bit, sign of zero too.  The states have
    zero entries in pi and z (terms the gather must skip) and entries whose
    products underflow to zero; leaders and followers are mixed, pure and
    partly pure."""
    spec = BATCH_GAMES[game]()
    n_l, n_f = spec.n_leader_states, spec.n_follower_states
    rng = np.random.default_rng(7 + len(game))
    states = [(rng.dirichlet(np.ones(n_l)), rng.dirichlet(np.ones(n_f))),
              (with_zeros(rng, n_l), with_zeros(rng, n_f)),
              (rng.dirichlet(np.ones(n_l)), with_zeros(rng, n_f)),
              (with_zeros(rng, n_l, tiny=True), with_zeros(rng, n_f, tiny=True)),
              (np.eye(n_l)[0], np.eye(n_f)[-1])]
    pi, z = (np.array(v) for v in zip(*states))
    leaders = batch_prescriptions(rng, 4, n_l, spec.n_leader_actions)
    followers = batch_prescriptions(rng, 5, n_f, spec.n_follower_actions)
    out = mean_field_batch(pi[:, None, None], z[:, None, None], leaders[:, None], followers,
                           spec.follower_kernel(z)[:, None, None])
    assert out.shape == (len(states), 4, 5, n_f)
    for k, (pi_k, z_k) in enumerate(states):
        for i, G in enumerate(leaders):
            for j, Ff in enumerate(followers):
                ref = s.mean_field_step(pi_k, z_k, s.Prescription(leader=G, follower=Ff), spec)
                assert np.array_equal(out[k, i, j], ref)
                assert np.array_equal(np.signbit(out[k, i, j]), np.signbit(ref))


def test_batched_mean_field_step_gathers_without_dense_terms():
    """Every pure tech pair at 51 mean fields in one call: 51 states x 41
    leaders x 4 follower maps.  A dense (pairs x terms) weight array alone
    would take 11 MiB here; the gather stays below 4 MiB."""
    spec = s.build_tech_adoption_game(s.TechAdoptionParams(price_points=41))
    z = s.build_grid(2, 50).points
    pi = np.ones((len(z), 1))
    leaders = np.eye(41)[:, None, :]
    followers = np.eye(2)[np.indices((2, 2)).reshape(2, -1).T]
    kernel = spec.follower_kernel(z)
    tracemalloc.start()
    try:
        out = mean_field_batch(pi[:, None, None], z[:, None, None], leaders[:, None],
                               followers, kernel[:, None, None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (51, 41, 4, 2)
    assert peak < 4 * 2 ** 20, peak
    ref = s.mean_field_step(pi[7], z[7], s.Prescription(leader=leaders[5], follower=followers[2]),
                            spec)
    assert np.array_equal(out[7, 5, 2], ref)


@pytest.mark.parametrize("game", ["signal", "three-leader-types", "tiny"])
def test_batched_belief_step_matches_scalar(game):
    """belief_batch equals belief_step_total bit for bit, fallback flag
    included, for every observed action of mixed, pure and partly pure
    leader prescriptions at interior, edge and vertex beliefs."""
    spec = {"signal": signal_family_spec,
            "three-leader-types": lambda: random_stochastic_spec(5, n_l=3, n_al=3),
            "tiny": lambda: load_game_file(TINY_GAME)}[game]()
    n_l, n_al, n_f = spec.n_leader_states, spec.n_leader_actions, spec.n_follower_states
    rng = np.random.default_rng(len(game))
    leaders = batch_prescriptions(rng, 6, n_l, n_al)
    fell = []
    for pi in (rng.dirichlet(np.ones(n_l)), with_zeros(rng, n_l), np.eye(n_l)[-1]):
        z = rng.dirichlet(np.ones(n_f))
        rows = np.swapaxes(spec.leader_kernel(z), 0, 1)        # (n_al, n_l, n_l)
        got, flags = belief_batch(pi, np.swapaxes(leaders, 1, 2), rows)
        assert got.shape == (6, n_al, n_l) and flags.shape == (6, n_al)
        for i, G in enumerate(leaders):
            for al in range(n_al):
                ref, ref_flag = s.belief_step_total(pi, z, G, al, spec)
                assert np.array_equal(got[i, al], ref)
                assert np.array_equal(np.signbit(got[i, al]), np.signbit(ref))
                assert flags[i, al] == ref_flag
                fell.append(ref_flag)
    assert any(fell) and not all(fell)


def test_batched_mean_field_step_checks_prescriptions():
    spec = s.build_infection_game()
    z, pi = np.array([0.5, 0.5]), np.array([1.0])
    kernel = spec.follower_kernel(z)
    leader = np.full((1, 1, spec.n_leader_actions), 1.0 / spec.n_leader_actions)
    follower = np.full((2, 2, 2), 0.5)
    mean_field_batch(pi, z, leader, follower, kernel)
    bad = follower.copy()
    bad[1, 0] = [-0.1, 1.1]
    with pytest.raises(ValueError, match="follower prescription has negative"):
        mean_field_batch(pi, z, leader, bad, kernel)
    bad[1, 0] = [0.5, 0.6]
    with pytest.raises(ValueError, match="follower prescription rows must sum to 1"):
        mean_field_batch(pi, z, leader, bad, kernel)
    with pytest.raises(ValueError, match="leader prescription rows must sum to 1"):
        mean_field_batch(pi, z, leader * 0.5, follower, kernel)
