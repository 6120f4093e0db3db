"""Per-point stage fixed point: follower best responses, leader choice, values."""

from fractions import Fraction

import numpy as np
import pytest

import stackmfg as s
from stackmfg.stage import StageEngine, _fma
from conftest import toy_joint_grid, toy_spec


def zero_tables(spec, joint):
    return (s.JointTable.zeros(joint, spec.n_follower_states),
            s.JointTable.zeros(joint, spec.n_leader_states))


def test_reward_independent_of_action_gives_all_pure_maps():
    """With zero continuation and action-free rewards every pure map is a BR."""

    def follower_reward(z, xl, xf, al, af):
        return float(xf) - z[1]

    spec = toy_spec(seed=1)
    spec = s.GameSpec(
        follower_states=spec.follower_states, leader_states=spec.leader_states,
        follower_actions=spec.follower_actions, leader_actions=spec.leader_actions,
        leader_kernel=spec.leader_kernel, follower_kernel=spec.follower_kernel,
        follower_reward=follower_reward, leader_reward=spec.leader_reward,
        discount=spec.discount, horizon=1,
        initial_leader_belief=[1.0], initial_mean_field=[0.5, 0.5])
    joint = toy_joint_grid(spec)
    vf, _ = zero_tables(spec, joint)
    gl = np.array([[1.0, 0.0]])
    brs = s.follower_br_set([1.0], [0.25, 0.75], gl, vf, spec)
    assert len(brs) == spec.n_follower_actions ** spec.n_follower_states == 4


def test_infection_terminal_stage_frozen(infection_spec):
    """Terminal stage with a positive price: unique BR is wait everywhere,
    and the leader takes the top price; value frozen by hand.

    At z=(0.5,0.5), k=0.2, price 1.0, c=0.2:
    leader value = -k*0.5 + (1.0 - 0.2) = 0.7.
    """
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 4))
    vf, vl = zero_tables(infection_spec, joint)
    gl = np.zeros((1, 21))
    gl[0, 10] = 1.0       # price 0.5 > 0
    brs = s.follower_br_set([1.0], [0.5, 0.5], gl, vf, infection_spec)
    assert len(brs) == 1
    assert np.array_equal(brs[0], np.array([[1.0, 0.0], [1.0, 0.0]]))

    sol = s.leader_optimize([1.0], [0.5, 0.5], vl, vf, infection_spec)
    assert sol.prescription.pure_actions() == ((20,), (0, 0))
    assert sol.leader_values[0] == pytest.approx(0.7, abs=1e-12)
    # certificate: chosen leader candidate beats every evaluated alternative
    best = max(v for _, _, v in sol.diagnostics.candidate_objectives)
    assert sol.leader_values[0] >= best - 1e-9


def test_sign_check_toy_br():
    """R^f = a*(2 z(1) - 1) with zero continuation: both types pick a=1
    when z(1)=0.75."""

    def follower_reward(z, xl, xf, al, af):
        return af * (2.0 * z[1] - 1.0)

    def follower_kernel(z, xl, xf, al, af):
        row = np.zeros(2)
        row[xf] = 1.0
        return row

    spec = s.GameSpec(
        follower_states=("a", "b"), leader_states=("L",),
        follower_actions=("0", "1"), leader_actions=("x",),
        leader_kernel=lambda z, al, xl: np.array([1.0]),
        follower_kernel=follower_kernel, follower_reward=follower_reward,
        leader_reward=lambda z, xl, al, gf: 0.0,
        discount=0.9, horizon=1,
        initial_leader_belief=[1.0], initial_mean_field=[0.25, 0.75])
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 4))
    vf, vl = zero_tables(spec, joint)
    brs = s.follower_br_set([1.0], [0.25, 0.75], np.array([[1.0]]), vf, spec)
    assert len(brs) == 1
    assert np.array_equal(brs[0], np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_single_leader_action_degenerates():
    spec = toy_spec(seed=7, n_leader_actions=1)
    joint = toy_joint_grid(spec)
    vf, vl = zero_tables(spec, joint)
    sol = s.leader_optimize([1.0], [0.5, 0.5], vl, vf, spec)
    assert sol.diagnostics.n_leader_candidates == 1
    brs = s.follower_br_set([1.0], [0.5, 0.5], np.array([[1.0]]), vf, spec)
    assert any(np.array_equal(sol.prescription.follower, b) for b in brs)


def test_stage_values_zero_discount_equal_instant_rewards():
    spec = toy_spec(seed=5, discount=0.0)
    joint = toy_joint_grid(spec)
    # continuation deliberately nonzero: discount zero must erase it
    vf = s.JointTable(joint, np.full((1, joint.z_grid.n_points, 2), 123.0))
    vl = s.JointTable(joint, np.full((1, joint.z_grid.n_points, 1), -55.0))
    gamma = s.Prescription.pure((1,), (0, 1), 2, 2)
    z = np.array([0.5, 0.5])
    f_vals, l_vals = s.stage_values([1.0], z, gamma, vf, vl, spec)
    expect_f = [spec.follower_reward(z, 0, 0, 1, 0), spec.follower_reward(z, 0, 1, 1, 1)]
    assert f_vals == pytest.approx(expect_f, abs=1e-15)
    assert l_vals[0] == pytest.approx(
        spec.leader_reward(z, 0, 1, gamma.follower), abs=1e-15)


def test_stage_values_zero_rewards_zero_tables():
    spec = toy_spec(seed=9)
    zeroed = s.GameSpec(
        follower_states=spec.follower_states, leader_states=spec.leader_states,
        follower_actions=spec.follower_actions, leader_actions=spec.leader_actions,
        leader_kernel=spec.leader_kernel, follower_kernel=spec.follower_kernel,
        follower_reward=lambda z, xl, xf, al, af: 0.0,
        leader_reward=lambda z, xl, al, gf: 0.0,
        discount=spec.discount, horizon=spec.horizon,
        initial_leader_belief=[1.0], initial_mean_field=[0.5, 0.5])
    joint = toy_joint_grid(zeroed)
    vf, vl = zero_tables(zeroed, joint)
    gamma = s.Prescription.pure((0,), (1, 0), 2, 2)
    f_vals, l_vals = s.stage_values([1.0], [0.25, 0.75], gamma, vf, vl, zeroed)
    assert np.all(f_vals == 0.0)
    assert np.all(l_vals == 0.0)


def test_fixed_point_certificate_on_random_toys():
    """Returned prescriptions satisfy the argmax condition under the
    self-consistent next mean field, re-verified from scratch."""
    for seed in range(6):
        spec = toy_spec(seed=seed, horizon=2)
        joint = toy_joint_grid(spec)
        gen, tables = s.backward_pass(spec, joint)
        vf1, vl1 = gen.continuation_for(1)
        for flat in range(joint.n_points):
            sol = gen.stages[0].solution(flat)
            pi, z = joint.point(flat)
            gamma = sol.prescription
            z_next = s.mean_field_step(pi, z, gamma, spec)
            for xf in range(2):
                played = int(np.argmax(gamma.follower[xf]))
                values = []
                for af in range(2):
                    total = 0.0
                    al = int(np.argmax(gamma.leader[0]))
                    r = spec.follower_reward(z, 0, xf, al, af)
                    q = spec.follower_kernel(z, 0, xf, al, af)
                    cont = vf1.interpolate_states([1.0], z_next)
                    total = r + spec.discount * float(q @ cont)
                    values.append(total)
                assert values[played] >= max(values) - 1e-9


def test_leader_certificate_on_random_toys():
    for seed in range(6):
        spec = toy_spec(seed=seed + 20, horizon=1)
        joint = toy_joint_grid(spec)
        vf, vl = zero_tables(spec, joint)
        sol = s.leader_optimize([1.0], [0.5, 0.5], vl, vf, spec)
        chosen = max(v for gl, bf, v in sol.diagnostics.candidate_objectives
                     if gl == sol.prescription.pure_actions()[0])
        best = max(v for _, _, v in sol.diagnostics.candidate_objectives)
        assert chosen >= best - 1e-9


def test_no_equilibrium_is_surfaced():
    """Anti-coordination continuation values defeat pure search, and the
    constant-damping fallback oscillates; the error carries coordinates."""

    # Followers move to the state matching their action; continuation values
    # reward occupying the state the population leaves.  The slight asymmetry
    # (6 vs 5 at the balanced point) kills the split pure candidates too.
    def follower_kernel(z, xl, xf, al, af):
        row = np.zeros(2)
        row[af] = 1.0
        return row

    spec = s.GameSpec(
        follower_states=("a", "b"), leader_states=("L",),
        follower_actions=("0", "1"), leader_actions=("x",),
        leader_kernel=lambda z, al, xl: np.array([1.0]),
        follower_kernel=follower_kernel,
        follower_reward=lambda z, xl, xf, al, af: 0.0,
        leader_reward=lambda z, xl, al, gf: 0.0,
        discount=1.0, horizon=2,
        initial_leader_belief=[1.0], initial_mean_field=[0.5, 0.5])
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 2))
    vals = np.zeros((1, 3, 2))           # z grid: (0,1), (0.5,0.5), (1,0)
    vals[0, :, 0] = [10.0, 6.0, 0.0]     # state a is best when everyone is in b
    vals[0, :, 1] = [0.0, 5.0, 10.0]
    vf = s.JointTable(joint, vals)
    vl = s.JointTable.zeros(joint, 1)
    brs = s.follower_br_set([1.0], [0.5, 0.5], np.array([[1.0]]), vf, spec)
    assert brs == []
    with pytest.raises(s.NoEquilibriumError) as err:
        s.leader_optimize([1.0], [0.5, 0.5], vl, vf, spec, t=2)
    assert err.value.t == 2
    assert err.value.z == pytest.approx([0.5, 0.5])


def test_fused_multiply_add_is_correctly_rounded():
    """The emulated a * b + c rounds once, like a hardware FMA, including
    near-total cancellation and exact zeros."""
    rng = np.random.default_rng(7)
    a = np.concatenate([rng.random(600), np.zeros(50), rng.random(350)])
    b = rng.normal(size=1000) * 10.0 ** rng.integers(-8, 8, size=1000)
    c = rng.normal(size=1000) * 10.0 ** rng.integers(-8, 8, size=1000)
    c[:300] = -(a[:300] * b[:300]) * (1.0 + rng.normal(size=300) * 1e-15)
    exact = [float(Fraction(x) * Fraction(y) + Fraction(w)) for x, y, w in zip(a, b, c)]
    assert np.array_equal(_fma(a, b, c), exact)


def test_identical_pairs_get_identical_objectives_anywhere_in_the_batch():
    """A public state listed twice, third and last, sweeps bit-identically."""
    spec = s.build_tech_adoption_game(s.TechAdoptionParams(price_points=7))
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 6))
    states = [joint.point(flat) for flat in range(joint.n_points)]
    engine = StageEngine(spec, joint, states + [states[2]])
    rng = np.random.default_rng(3)
    vf = rng.normal(size=(joint.n_points, 2))
    vl = rng.normal(size=(joint.n_points, 1))
    sweep = engine.sweep(vf, vl)
    assert np.array_equal(sweep.objectives[2], sweep.objectives[-1])
    assert np.array_equal(sweep.follower_values[2], sweep.follower_values[-1])
    assert np.array_equal(sweep.leader_values[2], sweep.leader_values[-1])
