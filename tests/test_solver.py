"""Backward/forward recursion, stationary solve, exact value cross-checks."""

import numpy as np
import pytest

import stackmfg as s
from conftest import (no_equilibrium_at, signal_family_spec, solve_clean_tiny,
                      toy_joint_grid, toy_spec, toy_spec_two_leader_states)


def zeroed_rewards(spec):
    return s.GameSpec.from_callables(
        follower_states=spec.follower_states, leader_states=spec.leader_states,
        follower_actions=spec.follower_actions, leader_actions=spec.leader_actions,
        leader_kernel=lambda z, al, xl: spec.leader_kernel(z)[xl, al],
        follower_kernel=lambda z, *idx: spec.follower_kernel(z)[idx],
        follower_reward=lambda z, xl, xf, al, af: 0.0,
        leader_reward=lambda z, xl, al, gf: 0.0,
        discount=spec.discount, horizon=spec.horizon,
        initial_leader_belief=spec.initial_leader_belief,
        initial_mean_field=spec.initial_mean_field)


def test_single_stage_game_matches_leader_optimize():
    spec = toy_spec(horizon=1, seed=2)
    joint = toy_joint_grid(spec)
    gen, tables = s.backward_pass(spec, joint)
    vf_term, vl_term = tables[1]
    for flat in range(joint.n_points):
        pi, z = joint.point(flat)
        direct = s.leader_optimize(pi, z, vl_term, vf_term, spec)
        sol = gen.stages[0].solution(flat)
        assert np.array_equal(direct.prescription.leader, sol.prescription.leader)
        assert np.array_equal(direct.prescription.follower, sol.prescription.follower)
        assert direct.follower_values == pytest.approx(sol.follower_values)
        assert direct.leader_values == pytest.approx(sol.leader_values)

    # Informative leader, damped fallback: the grid sweep and the one-state
    # solve agree exactly at every grid point of every stage.
    spec = signal_family_spec()
    joint = toy_joint_grid(spec, z_res=2, pi_res=2)
    gen, tables = s.backward_pass(spec, joint)
    damped = 0
    for t in range(1, spec.horizon + 1):
        vf_next, vl_next = tables[t]
        for flat in range(joint.n_points):
            pi, z = joint.point(flat)
            direct = s.leader_optimize(pi, z, vl_next, vf_next, spec, t=t)
            sol = gen.stages[t - 1].solution(flat)
            assert np.array_equal(direct.prescription.leader, sol.prescription.leader)
            assert np.array_equal(direct.prescription.follower, sol.prescription.follower)
            assert np.array_equal(direct.follower_values, sol.follower_values)
            assert np.array_equal(direct.leader_values, sol.leader_values)
            assert direct.diagnostics.to_dict() == sol.diagnostics.to_dict()
            damped += sol.diagnostics.used_damped_fallback
    assert damped >= 1


def test_zero_rewards_give_zero_tables():
    spec = zeroed_rewards(toy_spec(horizon=3, seed=4))
    joint = toy_joint_grid(spec)
    gen, tables = s.backward_pass(spec, joint)
    for vf, vl in tables:
        assert np.all(vf.values == 0.0)
        assert np.all(vl.values == 0.0)


def test_two_stage_values_match_exact_tree():
    """V_1 from the backward pass equals exhaustive expected-value expansion."""
    built = solve_clean_tiny(seed=4)
    assert built is not None
    spec, joint, gen, tables = built
    vf1, vl1 = tables[0]
    policy = s.generator_policy(gen)
    f_exact, l_exact = s.exact_values(spec, policy, [1.0], [0.5, 0.5],
                                      spec.horizon)
    flat, exact = gen.grid_lookup([1.0], [0.5, 0.5])
    assert exact
    i, j = joint.unravel(flat)
    assert vf1.values[i, j, :] == pytest.approx(f_exact, abs=1e-12)
    assert vl1.values[i, j, :] == pytest.approx(l_exact, abs=1e-12)


def test_trajectory_mean_field_consistency():
    """Stored branch mean fields are bitwise reproducible from the stored
    prescriptions via the update map."""
    spec = toy_spec(horizon=4, seed=8)
    joint = toy_joint_grid(spec)
    gen, _ = s.backward_pass(spec, joint)
    traj = s.forward_pass(spec, gen, [1.0], [0.5, 0.5], offgrid="nearest")
    for step, nxt in zip(traj.steps, traj.steps[1:]):
        for branch, gamma in zip(step.branches, step.prescriptions):
            z_next = s.mean_field_step(branch.pi, branch.z, gamma, spec)
            assert any(np.array_equal(z_next, b.z) for b in nxt.branches)


def test_forward_accumulators_match_exact_values():
    built = solve_clean_tiny(seed=6, horizon=2)
    assert built is not None
    spec, joint, gen, tables = built
    traj = s.forward_pass(spec, gen, [1.0], [0.5, 0.5], offgrid="nearest")
    policy = s.generator_policy(gen)
    f_exact, l_exact = s.exact_values(spec, policy, [1.0], [0.5, 0.5], spec.horizon)
    # representative follower per starting type, leader averaged over pi_1
    assert traj.follower_discounted == pytest.approx(f_exact, abs=1e-12)
    assert traj.leader_discounted == pytest.approx(float(l_exact[0]), abs=1e-12)


def test_forward_no_branching_single_leader_state():
    spec = toy_spec(horizon=3, seed=1)
    joint = toy_joint_grid(spec)
    gen, _ = s.backward_pass(spec, joint)
    traj = s.forward_pass(spec, gen, [1.0], [0.5, 0.5], offgrid="nearest")
    assert all(len(step.branches) == 1 for step in traj.steps)


def test_forward_branches_with_informative_leader():
    built = solve_clean_tiny(seed=0, two_leader_states=True)
    if built is None:
        pytest.skip("seed produced a degenerate tiny game")
    spec, joint, gen, tables = built
    traj = s.forward_pass(spec, gen, [0.5, 0.5], [0.5, 0.5], offgrid="nearest")
    total = sum(b.weight for b in traj.steps[-1].branches)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_sampled_mode_reproducible():
    spec = toy_spec(horizon=3, seed=12)
    joint = toy_joint_grid(spec)
    gen, _ = s.backward_pass(spec, joint)
    t1 = s.forward_pass(spec, gen, [1.0], [0.5, 0.5], mode="sampled", seed=42,
                        offgrid="nearest")
    t2 = s.forward_pass(spec, gen, [1.0], [0.5, 0.5], mode="sampled", seed=42,
                        offgrid="nearest")
    for a, b in zip(t1.steps, t2.steps):
        assert np.array_equal(a.branches[0].z, b.branches[0].z)


def test_identity_kernel_keeps_mean_field_constant():
    def follower_kernel(z, xl, xf, al, af):
        row = np.zeros(2)
        row[xf] = 1.0
        return row

    spec = s.GameSpec.from_callables(
        follower_states=("a", "b"), leader_states=("L",),
        follower_actions=("0", "1"), leader_actions=("x",),
        leader_kernel=lambda z, al, xl: np.array([1.0]),
        follower_kernel=follower_kernel,
        follower_reward=lambda z, xl, xf, al, af: float(af == 0),
        leader_reward=lambda z, xl, al, gf: 0.0,
        discount=0.9, horizon=4,
        initial_leader_belief=[1.0], initial_mean_field=[0.25, 0.75])
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 4))
    gen, _ = s.backward_pass(spec, joint)
    traj = s.forward_pass(spec, gen, [1.0], [0.25, 0.75], offgrid="nearest")
    for step in traj.steps:
        assert step.branches[0].z == pytest.approx([0.25, 0.75])


def test_stationary_zero_rewards_one_sweep():
    spec = zeroed_rewards(toy_spec(horizon=None, seed=4))
    joint = toy_joint_grid(spec)
    gen, tables, report = s.solve_stationary(spec, joint, tol=1e-10)
    assert report.iterations == 1
    assert report.deltas == [0.0]
    assert np.all(tables[0].values == 0.0)


def test_stationary_contraction_once_policy_stable():
    spec = s.build_infection_game(s.InfectionParams(subsidy_points=5))
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 10))
    gen, tables, report = s.solve_stationary(spec, joint, tol=1e-6)
    assert report.converged
    streak = 0
    checked = 0
    for k in range(1, report.iterations):
        streak = streak + 1 if report.prescription_stable[k] else 0
        if streak >= 3 and report.deltas[k - 1] > 0:
            ratio = report.deltas[k] / report.deltas[k - 1]
            assert ratio <= spec.discount + 0.01
            checked += 1
    assert checked > 0


def test_stationary_selection_does_not_flip_on_rounding():
    """Near z = (0, 1) several leader prices tie up to rounding; taking the
    first within SELECTION_TOL keeps the choice fixed from sweep to sweep,
    so the follower table stops jumping and the prescriptions settle."""
    spec = s.build_infection_game(s.InfectionParams(k=0.2, q=0.9, lam=0.2, delta=0.9))
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 20))
    _, _, report = s.solve_stationary(spec, joint, tol=1e-6)
    assert max(report.deltas[50:]) <= 0.1
    assert all(report.prescription_stable[19:])


def test_stationary_independent_of_initial_tables():
    spec = s.build_infection_game(s.InfectionParams(subsidy_points=5))
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 8))
    tol = 1e-7
    _, (vf_a, vl_a), _ = s.solve_stationary(spec, joint, tol=tol)
    rng = np.random.default_rng(123)
    init = (s.JointTable(joint, rng.uniform(-1, 1, size=(1, 9, 2))),
            s.JointTable(joint, rng.uniform(-1, 1, size=(1, 9, 1))))
    _, (vf_b, vl_b), _ = s.solve_stationary(spec, joint, tol=tol,
                                            initial_tables=init)
    assert vf_a.max_abs_diff(vf_b) <= 10 * tol
    assert vl_a.max_abs_diff(vl_b) <= 10 * tol


def test_stationary_nonconvergence_carries_history():
    spec = s.build_infection_game(s.InfectionParams(subsidy_points=3))
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 4))
    with pytest.raises(s.NonConvergenceError) as err:
        s.solve_stationary(spec, joint, tol=1e-12, max_iter=3)
    assert len(err.value.deltas) == 3


def test_stationary_rejects_max_iter_below_one():
    spec = s.build_infection_game(s.InfectionParams(subsidy_points=3))
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 4))
    for max_iter in (0, -2):
        with pytest.raises(ValueError, match="max_iter"):
            s.solve_stationary(spec, joint, max_iter=max_iter)


def test_stationary_rejects_tol_not_above_zero():
    """A tolerance the sweep deltas can never fall below is refused up front."""
    spec = s.build_infection_game(s.InfectionParams(subsidy_points=3))
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 4))
    for tol in (0.0, -1e-6, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            s.solve_stationary(spec, joint, tol=tol)


def test_forward_pass_rejects_unknown_mode_and_offgrid():
    """Both are checked before the first step, also from an on-lattice start
    whose lookups never leave the grid."""
    spec = toy_spec(horizon=2, seed=8)
    gen, _ = s.backward_pass(spec, toy_joint_grid(spec))
    assert gen.grid_lookup([1.0], [0.5, 0.5])[1]
    for kwargs, accepted in (({"mode": "bogus"}, "'expected' or 'sampled'"),
                             ({"offgrid": "bogus"}, "'resolve' or 'nearest'")):
        with pytest.raises(ValueError, match=accepted):
            s.forward_pass(spec, gen, [1.0], [0.5, 0.5], **kwargs)


def test_backward_requires_finite_horizon(infection_spec):
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 4))
    with pytest.raises(ValueError):
        s.backward_pass(infection_spec, joint)


def test_backward_pass_names_the_stage_without_equilibrium(monkeypatch):
    spec = toy_spec_two_leader_states(horizon=3)
    joint = toy_joint_grid(spec)
    s.backward_pass(spec, joint)
    no_equilibrium_at(monkeypatch, 7, sweep=2)      # stage 2 of 3
    with pytest.raises(s.NoEquilibriumError) as err:
        s.backward_pass(spec, joint)
    pi, z = joint.point(7)
    assert err.value.t == 2
    assert np.array_equal(err.value.pi, pi) and np.array_equal(err.value.z, z)


def test_forward_pass_builds_each_grid_prescription_once(monkeypatch):
    """A solved stage builds a grid point's Prescription the first time the
    forward pass reads it, and reuses it on every later step and pass."""
    spec = s.build_infection_game(s.InfectionParams(subsidy_points=3))
    joint = toy_joint_grid(spec, z_res=4)
    gen, _, _ = s.solve_stationary(spec, joint)
    built = []
    check = s.Prescription.__post_init__
    monkeypatch.setattr(s.Prescription, "__post_init__",
                        lambda self: (built.append(1), check(self))[1])
    traj = s.forward_pass(spec, gen, [1.0], [0.37, 0.63], steps=40, offgrid="nearest")
    assert len(traj.steps) == 40
    assert 1 <= len(built) <= joint.n_points
    first = len(built)
    s.forward_pass(spec, gen, [1.0], [0.37, 0.63], steps=40, offgrid="nearest")
    assert len(built) == first


@pytest.fixture(scope="module")
def infection_solved():
    """The benchmark's stationary infection solve: z-res 10, 11 prices."""
    spec = s.build_infection_game(s.InfectionParams(subsidy_points=11))
    gen, _, _ = s.solve_stationary(spec, toy_joint_grid(spec, z_res=10))
    return spec, gen


@pytest.fixture(scope="module")
def tech_solved():
    spec = s.build_tech_adoption_game(s.TechAdoptionParams(price_points=41))
    gen, _, _ = s.solve_stationary(spec, toy_joint_grid(spec, z_res=10))
    return spec, gen


@pytest.fixture(scope="module")
def two_leader_solved():
    """A stationary game whose two leader types split the path into two
    branches that revisit the same few states."""
    spec = toy_spec_two_leader_states(horizon=None, seed=3)
    gen, _, _ = s.solve_stationary(spec, toy_joint_grid(spec))
    return spec, gen


OFF_LATTICE_Z0 = [0.6231471329413584, 0.3768528670586416]


def distinct_states(traj):
    return {(b.pi.tobytes(), b.z.tobytes()) for step in traj.steps for b in step.branches}


def assert_steps_match_fresh_passes(spec, gen, traj, offgrid):
    """Each step of ``traj`` equals, bit for bit, a fresh expected-path pass
    started from each of its branches, so no step reused a stale value."""
    for t, step in enumerate(traj.steps):
        rl = pop = 0.0
        fresh_next = []
        for branch, gamma, marginal in zip(step.branches, step.prescriptions,
                                           step.action_marginals):
            fresh = s.forward_pass(spec, gen, branch.pi, branch.z, steps=2, offgrid=offgrid)
            first = fresh.steps[0]
            assert first.prescriptions[0].leader.tobytes() == gamma.leader.tobytes()
            assert first.prescriptions[0].follower.tobytes() == gamma.follower.tobytes()
            assert first.action_marginals[0].tobytes() == marginal.tobytes()
            assert first.offgrid_lookups == int(not gen.grid_lookup(branch.pi, branch.z)[1])
            rl += branch.weight * first.leader_reward
            pop += branch.weight * first.follower_reward
            fresh_next += [(branch.weight * b.weight, b.pi.tobytes(), b.z.tobytes())
                           for b in fresh.steps[1].branches]
        assert (rl, pop) == (step.leader_reward, step.follower_reward), t
        if t + 1 == len(traj.steps):
            continue
        got = [(b.weight, b.pi.tobytes(), b.z.tobytes()) for b in traj.steps[t + 1].branches]
        if traj.mode == "expected":
            assert got == fresh_next, t
        else:
            assert got[0][1:] in [nxt[1:] for nxt in fresh_next], t


def test_stationary_steps_reuse_bit_identical_work(infection_solved, tech_solved,
                                                   two_leader_solved):
    cases = [(infection_solved, [1.0], OFF_LATTICE_Z0, "expected", "resolve"),
             (infection_solved, [1.0], OFF_LATTICE_Z0, "sampled", "resolve"),
             (tech_solved, [1.0], [0.3, 0.7], "expected", "resolve"),
             (two_leader_solved, [0.5, 0.5], [0.5, 0.5], "expected", "nearest"),
             (two_leader_solved, [0.5, 0.5], [0.5, 0.5], "sampled", "nearest")]
    widths = []
    for (spec, gen), pi0, z0, mode, offgrid in cases:
        traj = s.forward_pass(spec, gen, pi0, z0, steps=200, mode=mode, seed=7,
                              offgrid=offgrid)
        widths.append(max(len(step.branches) for step in traj.steps))
        assert traj.reused_steps > 0
        assert traj.computed_steps + traj.reused_steps == sum(
            len(step.branches) for step in traj.steps)
        assert_steps_match_fresh_passes(spec, gen, traj, offgrid)
    assert widths == [1, 1, 1, 2, 1]


def test_forward_pass_computes_each_distinct_state_once(monkeypatch, infection_solved,
                                                        tech_solved):
    """A branch-step is computed, and an off-grid state re-solved, once per
    distinct (stage, pi, z) of a trajectory that never returns to a state it
    left."""
    calls = {"leader_optimize": 0, "_branch_prescription": 0}
    for name in calls:
        original = getattr(s.solver, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(s.solver, name, counted)
    for (spec, gen), z0, n_states in [(infection_solved, OFF_LATTICE_Z0, None),
                                      (tech_solved, [0.3, 0.7], 71)]:
        calls.update(dict.fromkeys(calls, 0))
        traj = s.forward_pass(spec, gen, [1.0], z0, steps=200, offgrid="resolve")
        states = distinct_states(traj)
        assert len(states) == (n_states or len(states)) < 200
        assert calls["_branch_prescription"] == traj.computed_steps == len(states)
        assert 0 < calls["leader_optimize"] == traj.offgrid_lookups < 200
        assert calls["leader_optimize"] == sum(
            not gen.grid_lookup(np.frombuffer(pi), np.frombuffer(z))[1] for pi, z in states)


def test_stationary_cycle_computes_each_state_once():
    """A stationary path that cycles among a few states computes each of them
    once for the whole pass, and every step equals a fresh pass from its
    branches, bit for bit."""
    spec = toy_spec_two_leader_states(horizon=None, seed=2)
    gen, _, _ = s.solve_stationary(spec, toy_joint_grid(spec, z_res=4, pi_res=2))
    traj = s.forward_pass(spec, gen, [0.5, 0.5], [0.5, 0.5], steps=200)
    assert traj.computed_steps == len(distinct_states(traj)) <= 4
    assert traj.reused_steps == 200 - traj.computed_steps
    assert_steps_match_fresh_passes(spec, gen, traj, "nearest")


def test_reused_step_arrays_are_read_only(infection_solved, two_leader_solved):
    for (spec, gen), pi0 in [(infection_solved, [1.0]), (two_leader_solved, [0.5, 0.5])]:
        branch = s.solver.Branch(weight=1.0, pi=np.asarray(pi0), z=np.array([0.5, 0.5]),
                                 xi=np.eye(2))
        entry = s.solver._branch_step(spec, gen, 1, branch, "resolve", s.SolverConfig())
        gamma, _, _, _, per_type, kernels, marginal, z_next, beliefs = entry
        arrays = [gamma.leader, gamma.follower, per_type, marginal, z_next,
                  *beliefs.values(), *(k for _, k in kernels.values())]
        assert len(arrays) > 5
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0


def test_branch_cap_lumps_low_weight_branches(monkeypatch):
    """Two revealing leader types split the tree each step; a cap of one
    branch keeps the heaviest and records the lumped weight."""

    def leader_kernel(z, al, xl):
        row = np.zeros(2)
        row[xl] = 1.0
        return row

    def follower_kernel(z, xl, xf, al, af):
        row = np.zeros(2)
        row[xf] = 1.0
        return row

    spec = s.GameSpec.from_callables(
        follower_states=("a", "b"), leader_states=("lo", "hi"),
        follower_actions=("0", "1"), leader_actions=("0", "1"),
        leader_kernel=leader_kernel, follower_kernel=follower_kernel,
        follower_reward=lambda z, xl, xf, al, af: 0.1 * af,
        leader_reward=lambda z, xl, al, gf: 1.0 if al == xl else 0.0,
        discount=0.9, horizon=2,
        initial_leader_belief=[0.6, 0.4], initial_mean_field=[0.5, 0.5])
    joint = s.JointGrid(pi_grid=s.build_grid(2, 5), z_grid=s.build_grid(2, 2))
    gen, _ = s.backward_pass(spec, joint)
    full = s.forward_pass(spec, gen, [0.6, 0.4], [0.5, 0.5], offgrid="nearest")
    assert len(full.steps[1].branches) == 2
    assert full.lost_weight == 0.0
    monkeypatch.setattr(s.solver, "BRANCH_CAP", 1)
    capped = s.forward_pass(spec, gen, [0.6, 0.4], [0.5, 0.5], offgrid="nearest")
    assert len(capped.steps[1].branches) == 1
    assert capped.lost_weight == pytest.approx(0.4, abs=1e-12)
    # kept branch is renormalized
    assert capped.steps[1].branches[0].weight == pytest.approx(1.0)


def test_mixed_leader_grid_flag():
    spec = toy_spec(horizon=1, seed=2)
    joint = toy_joint_grid(spec)
    vf = s.JointTable.zeros(joint, 2)
    vl = s.JointTable.zeros(joint, 1)
    pure = s.leader_optimize([1.0], [0.5, 0.5], vl, vf, spec)
    mixed = s.leader_optimize([1.0], [0.5, 0.5], vl, vf, spec,
                              config=s.SolverConfig(leader_mixed_grid=True))
    # 2 pure rows plus the 9 strictly mixed rows in 0.1 steps
    assert mixed.diagnostics.n_leader_candidates == 11
    best_pure = max(v for _, _, v in pure.diagnostics.candidate_objectives)
    best_mixed = max(v for _, _, v in mixed.diagnostics.candidate_objectives)
    assert best_mixed >= best_pure - 1e-12
