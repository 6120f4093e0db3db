"""Backward/forward recursion, stationary solve, exact value cross-checks."""

import re

import numpy as np
import pytest

import stackmfg as s
from conftest import (no_equilibrium_at, signal_family_spec, solve_clean_tiny,
                      toy_joint_grid, toy_spec, toy_spec_two_leader_states)
from stackmfg import export


def zeroed_rewards(spec, follower_reward=0.0):
    """``spec`` with zero leader rewards and a constant follower reward."""
    return s.GameSpec.from_callables(
        follower_states=spec.follower_states, leader_states=spec.leader_states,
        follower_actions=spec.follower_actions, leader_actions=spec.leader_actions,
        leader_kernel=lambda z, al, xl: spec.leader_kernel(z)[xl, al],
        follower_kernel=lambda z, *idx: spec.follower_kernel(z)[idx],
        follower_reward=lambda z, xl, xf, al, af: follower_reward,
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

    # Informative leader, mixed check: the grid sweep and the one-state
    # solve agree exactly at every grid point of every stage, down to the
    # diagnostics the whole stage reduces at once.
    spec = signal_family_spec()
    joint = toy_joint_grid(spec, z_res=2, pi_res=2)
    gen, tables = s.backward_pass(spec, joint)
    damped = 0
    for t in range(1, spec.horizon + 1):
        vf_next, vl_next = tables[t]
        rows = gen.stages[t - 1].diagnostic_rows()
        for flat in range(joint.n_points):
            pi, z = joint.point(flat)
            direct = s.leader_optimize(pi, z, vl_next, vf_next, spec, t=t)
            sol = gen.stages[t - 1].solution(flat)
            assert np.array_equal(direct.prescription.leader, sol.prescription.leader)
            assert np.array_equal(direct.prescription.follower, sol.prescription.follower)
            assert np.array_equal(direct.follower_values, sol.follower_values)
            assert np.array_equal(direct.leader_values, sol.leader_values)
            assert direct.diagnostics.to_dict() == sol.diagnostics.to_dict() == rows[flat]
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


def test_stationary_solve_builds_its_tables_once_on_return(monkeypatch):
    """Sweeps hand the engine's flat arrays on; the two JointTables of the
    result are built after the last sweep, from the stored stage."""
    built, before_sweep = [], []
    init, solve = s.JointTable.__init__, s.stage.StageEngine.solve

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_solve(self, *args, **kwargs):
        before_sweep.append(len(built))
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(s.JointTable, "__init__", counted_init)
    monkeypatch.setattr(s.stage.StageEngine, "solve", counted_solve)
    spec = s.build_infection_game(s.InfectionParams(subsidy_points=5))
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 8))
    gen, (vf, vl), report = s.solve_stationary(spec, joint, tol=1e-7)
    assert report.iterations > 1 and before_sweep == [0] * report.iterations
    assert built == [vf, vl]
    assert np.array_equal(vf.flat_values(), gen.stages[0].follower_values)
    assert np.array_equal(vl.flat_values(), gen.stages[0].leader_values)


def test_continuation_for_matches_backward_tables():
    """continuation_for(t) is tables[t], terminal zeros included, and is what
    stage t was solved against."""
    spec = toy_spec_two_leader_states(horizon=3)
    joint = toy_joint_grid(spec)
    gen, tables = s.backward_pass(spec, joint)
    assert len(tables) == 4
    engine = s.stage.StageEngine(spec, joint)
    for t, (vf, vl) in enumerate(tables):
        cf, cl = gen.continuation_for(t)
        assert np.array_equal(cf.values, vf.values) and np.array_equal(cl.values, vl.values)
        if t == 0:
            continue
        again = engine.sweep(cf.flat_values(), cl.flat_values(), t=t)
        assert np.array_equal(again.follower_values, gen.stages[t - 1].follower_values)
        assert np.array_equal(again.leader_values, gen.stages[t - 1].leader_values)
    assert not tables[3][0].values.any() and not tables[3][1].values.any()
    for t in (-1, 4):
        with pytest.raises(IndexError):
            gen.continuation_for(t)


def opposite_overflow_spec(horizon):
    """Followers move to the state their action names and earn +1e308 in
    state a, -1e308 in state b: the second stage's objectives overflow to
    +inf and -inf, so type b's value holds 0·(-inf) = NaN."""
    return s.GameSpec.from_callables(
        follower_states=("a", "b"), leader_states=("L",), follower_actions=("a", "b"),
        leader_actions=("0",), leader_kernel=lambda z, al, xl: np.array([1.0]),
        follower_kernel=lambda z, xl, xf, al, af: np.eye(2)[af],
        follower_reward=lambda z, xl, xf, al, af: 1e308 if xf == 0 else -1e308,
        leader_reward=lambda z, xl, al, gf: 0.0, discount=0.9, horizon=horizon,
        initial_leader_belief=[1.0], initial_mean_field=[0.5, 0.5])


def leader_overflow_spec(horizon):
    """Leader types lo and hi keep their type, and hi earns 1e308 a stage:
    the second stage's hi values overflow to +inf at every state, also
    where the belief rules hi out, and there the leader objective must stay
    finite rather than 0·inf = NaN.  Followers move to the state their
    action names, for no reward."""
    return s.GameSpec.from_callables(
        follower_states=("a", "b"), leader_states=("lo", "hi"), follower_actions=("a", "b"),
        leader_actions=("0",), leader_kernel=lambda z, al, xl: np.eye(2)[xl],
        follower_kernel=lambda z, xl, xf, al, af: np.eye(2)[af],
        follower_reward=lambda z, xl, xf, al, af: 0.0,
        leader_reward=lambda z, xl, al, gf: 1e308 if xl == 1 else 0.0, discount=0.9,
        horizon=horizon, initial_leader_belief=[0.5, 0.5], initial_mean_field=[0.5, 0.5])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_values_raise_at_the_overflowing_sweep():
    """Follower rewards of 1e308 leave one stage's values finite and
    overflow two stages': both solve loops raise there, naming the first
    grid point.  So do rewards that overflow to both signs, where a NaN
    value must not read as a stage without an equilibrium, and leader
    rewards that overflow for one leader type."""
    for horizon, where in ((3, "t=2"), (None, "stationary sweep 2")):
        for spec in (zeroed_rewards(toy_spec(horizon=horizon, seed=4), follower_reward=1e308),
                     opposite_overflow_spec(horizon), leader_overflow_spec(horizon)):
            joint = toy_joint_grid(spec)
            pi, z = joint.point(0)
            solve = s.backward_pass if horizon else s.solve_stationary
            with pytest.raises(s.NonFiniteValues, match=re.escape(f"{where}, pi={pi}, z={z}")):
                solve(spec, joint)


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


def crowding_stationary_spec():
    """Followers move to the state their action names and pay for the crowding
    of their own state, so from z = (1, 0) no pure map is a follower fixed
    point and every stationary sweep after the first reaches the mixed check."""
    return s.GameSpec.from_callables(
        follower_states=("a", "b"), leader_states=("L",), follower_actions=("a", "b"),
        leader_actions=("0", "1"), leader_kernel=lambda z, al, xl: np.array([1.0]),
        follower_kernel=lambda z, xl, xf, al, af: (np.array([0.7, 0.3]) if al and af
                                                   else np.eye(2)[af]),
        follower_reward=lambda z, xl, xf, al, af: -z[xf],
        leader_reward=lambda z, xl, al, gf: -0.3 * al + gf[0, 1] + z[1] / 3,
        discount=0.5, horizon=None, initial_leader_belief=[1.0], initial_mean_field=[1.0, 0.0])


def sweep_loop(spec, joint, tol, max_iter=None):
    """Value iteration as a loop of ``StageEngine.sweep`` from zero tables,
    until a delta is below ``tol`` or after ``max_iter`` sweeps: the last
    sweep, the deltas and the prescription-stable flags."""
    engine = s.stage.StageEngine(spec, joint)
    vf = np.zeros((joint.n_points, spec.n_follower_states))
    vl = np.zeros((joint.n_points, spec.n_leader_states))
    deltas, stable, prev = [], [], None
    while not deltas or deltas[-1] >= tol and len(deltas) != max_iter:
        sweep = engine.sweep(vf, vl)
        deltas.append(float(max(np.max(np.abs(sweep.follower_values - vf)),
                                np.max(np.abs(sweep.leader_values - vl)))))
        stable.append(prev is not None and np.array_equal(sweep.leader, prev.leader)
                      and np.array_equal(sweep.follower, prev.follower))
        prev, vf, vl = sweep, sweep.follower_values, sweep.leader_values
    return sweep, deltas, stable


@pytest.mark.parametrize("game", ["infection", "infection-50", "tech-41", "crowding"])
def test_stationary_solve_equals_a_loop_of_engine_sweeps(game, monkeypatch):
    """``solve_stationary`` keeps only what the next sweep needs, and its
    deltas, stable flags and every field of its one ``StageSweep``,
    objectives included, equal a loop of assembled engine sweeps bit for
    bit.  Only the crowding game reaches the mixed check, and its last
    sweep chooses mixed maps.  At z-res 50 the infection game's stationary
    equilibria are not unique, and both must select the same one."""
    spec, joint = {
        "infection": lambda: (s.build_infection_game(s.InfectionParams(subsidy_points=11)),
                              s.JointGrid(s.build_grid(1, 1), s.build_grid(2, 10))),
        "infection-50": lambda: (s.build_infection_game(s.InfectionParams(subsidy_points=11)),
                                 s.JointGrid(s.build_grid(1, 1), s.build_grid(2, 50))),
        "tech-41": lambda: (s.build_tech_adoption_game(s.TechAdoptionParams(price_points=41)),
                            s.JointGrid(s.build_grid(1, 1), s.build_grid(2, 10))),
        "crowding": lambda: (crowding_stationary_spec(),
                             s.JointGrid(s.build_grid(1, 1), s.build_grid(2, 4))),
    }[game]()
    mixed_rows = []
    mixed_fixed = s.stage.StageEngine._mixed_fixed
    monkeypatch.setattr(s.stage.StageEngine, "_mixed_fixed", lambda self, rows, table: (
        mixed_rows.append(len(rows)), mixed_fixed(self, rows, table))[1])
    gen, _, report = s.solve_stationary(spec, joint, tol=1e-6)
    sweep, deltas, stable = sweep_loop(spec, joint, tol=1e-6)
    assert report.converged and report.deltas == deltas
    assert report.prescription_stable == stable and any(stable)
    got, = gen.stages
    for name in ("leader", "follower", "follower_values", "leader_values", "objectives", "bayes"):
        a, b = getattr(got, name), getattr(sweep, name)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.keys == sweep.keys
    mixed = game == "crowding"
    assert any(mixed_rows) == mixed and np.any(got.follower % 1.0) == mixed


def test_stationary_nonconvergence_equals_a_loop_of_engine_sweeps(monkeypatch):
    """Tech at its default 21 prices never converges: the leader's price
    cycles at a grid point, so from the 9th sweep on the prescriptions
    change in two sweeps of every four.  The deltas ``NonConvergenceError``
    carries and the stable flags of the solve equal a loop of engine sweeps
    bit for bit."""
    spec = s.build_tech_adoption_game(s.TechAdoptionParams(price_points=21))
    joint = s.JointGrid(s.build_grid(1, 1), s.build_grid(2, 10))
    reports, report_cls = [], s.solver.ConvergenceReport
    monkeypatch.setattr(s.solver, "ConvergenceReport",
                        lambda **kwargs: reports.append(report_cls(**kwargs)) or reports[-1])
    with pytest.raises(s.NonConvergenceError) as err:
        s.solve_stationary(spec, joint, tol=1e-6, max_iter=60)
    _, deltas, stable = sweep_loop(spec, joint, tol=1e-6, max_iter=60)
    assert len(deltas) == 60 and deltas[-1] >= 1e-6
    assert err.value.deltas == deltas and reports[0].deltas == deltas
    assert reports[0].prescription_stable == stable and not reports[0].converged
    assert stable[8:] == [False, False, True, True] * 13


def test_stationary_rejects_tol_not_above_zero():
    """A tolerance the sweep deltas can never fall below is refused up front."""
    spec = s.build_infection_game(s.InfectionParams(subsidy_points=3))
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 4))
    for tol in (0.0, -1e-6, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            s.solve_stationary(spec, joint, tol=tol)


def test_forward_pass_rejects_unknown_mode_and_offgrid():
    """Mode, offgrid policy and step count are checked before the first
    step, also from an on-lattice start whose lookups never leave the grid."""
    spec = toy_spec(horizon=2, seed=8)
    gen, _ = s.backward_pass(spec, toy_joint_grid(spec))
    assert gen.grid_lookup([1.0], [0.5, 0.5])[1]
    for kwargs, accepted in (({"mode": "bogus"}, "'expected' or 'sampled'"),
                             ({"offgrid": "bogus"}, "'resolve' or 'nearest'"),
                             ({"steps": 0}, "at least 1"), ({"steps": -3}, "at least 1")):
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
    assert str(err.value).endswith(f" at t=2, pi={pi}, z={z}"), str(err.value)


def test_forward_pass_builds_each_grid_prescription_once(monkeypatch):
    """A forward pass builds a grid point's Prescription the first time it
    reads it and reuses it on every later step; a second pass builds the
    same ones again, since a solved stage keeps no Prescription."""
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
    assert len(built) == 2 * first


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
    started from each of its branches, so no step reused a stale value.  A
    finite generator's fresh pass starts at the step's stage."""
    for t, step in enumerate(traj.steps):
        rl = pop = 0.0
        fresh_next = []
        rest = gen if gen.stationary else s.EquilibriumGenerator(gen.joint, gen.stages[t:], False)
        for branch, gamma, marginal in zip(step.branches, step.prescriptions,
                                           step.action_marginals):
            fresh = s.forward_pass(spec, rest, branch.pi, branch.z,
                                   steps=min(2, len(traj.steps) - t), offgrid=offgrid)
            first = fresh.steps[0]
            assert first.prescriptions[0].leader.tobytes() == gamma.leader.tobytes()
            assert first.prescriptions[0].follower.tobytes() == gamma.follower.tobytes()
            assert first.action_marginals[0].tobytes() == marginal.tobytes()
            assert first.offgrid_lookups == int(not gen.grid_lookup(branch.pi, branch.z)[1])
            rl += branch.weight * first.leader_reward
            pop += branch.weight * first.follower_reward
            fresh_next += [(branch.weight * b.weight, b.pi.tobytes(), b.z.tobytes())
                           for b in fresh.steps[-1].branches]
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
    calls, resolved = {"_branch_step": 0}, []
    branch_step, engine = s.solver._branch_step, s.solver.StageEngine

    def counted(*args, **kwargs):
        calls["_branch_step"] += 1
        return branch_step(*args, **kwargs)

    def resolving_engine(spec, joint, states, config):
        resolved.extend((pi.tobytes(), z.tobytes()) for pi, z in states)
        return engine(spec, joint, states, config)
    monkeypatch.setattr(s.solver, "_branch_step", counted)
    monkeypatch.setattr(s.solver, "StageEngine", resolving_engine)
    for (spec, gen), z0, n_states in [(infection_solved, OFF_LATTICE_Z0, None),
                                      (tech_solved, [0.3, 0.7], 71)]:
        calls["_branch_step"], resolved[:] = 0, []
        traj = s.forward_pass(spec, gen, [1.0], z0, steps=200, offgrid="resolve")
        states = distinct_states(traj)
        assert len(states) == (n_states or len(states)) < 200
        assert calls["_branch_step"] == traj.computed_steps == len(states)
        assert 0 < len(resolved) == len(set(resolved)) == traj.offgrid_lookups < 200
        assert set(resolved) == {(pi, z) for pi, z in states
                                 if not gen.grid_lookup(np.frombuffer(pi), np.frombuffer(z))[1]}


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
        pi, z = np.asarray(pi0), np.array([0.5, 0.5])
        flat, exact = gen.grid_lookup(pi, z)
        entry = s.solver._branch_step(spec, pi, z, gen.policy_for(1).prescription(flat),
                                      not exact, s.SolverConfig())
        gamma, _, _, _, per_type, marginal, z_next, played = entry
        arrays = [gamma.leader, gamma.follower, per_type, marginal, z_next,
                  *(a for _, k, pi_next in played.values() for a in (k, pi_next))]
        assert len(arrays) > 5
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0


def signal_start(seed=0):
    """(pi0, z0) of the benchmark's signal game at ``seed``, drawn in its order."""
    start = np.random.default_rng(seed)
    return start.dirichlet(np.ones(2)), start.dirichlet(np.ones(3))


@pytest.fixture(scope="module")
def signal_solved():
    spec = signal_family_spec()
    return spec, s.backward_pass(spec, toy_joint_grid(spec, z_res=2, pi_res=2))[0]


def test_batched_resolves_equal_one_state_solves(signal_solved):
    """Each off-grid state of a step is re-solved in one engine with the
    step's others, and gets the prescription of a one-state solve, bit for
    bit."""
    spec, gen = signal_solved
    for pi0, z0 in [(spec.initial_leader_belief, spec.initial_mean_field), signal_start()]:
        traj = s.forward_pass(spec, gen, pi0, z0, offgrid="resolve")
        assert max(step.offgrid_lookups for step in traj.steps) >= 2
        for step in traj.steps:
            vf, vl = gen.continuation_for(step.t)
            for b, gamma in zip(step.branches, step.prescriptions):
                assert not gen.grid_lookup(b.pi, b.z)[1]
                one = s.leader_optimize(b.pi, b.z, vl, vf, spec, t=step.t).prescription
                assert gamma.leader.tobytes() == one.leader.tobytes()
                assert gamma.follower.tobytes() == one.follower.tobytes()
        assert_steps_match_fresh_passes(spec, gen, traj, "resolve")


def test_batched_resolve_names_the_failing_branch(monkeypatch, signal_solved):
    """A batched step without an equilibrium at a later branch raises
    NoEquilibriumError with that branch's stage and public state."""
    spec, gen = signal_solved
    pi0, z0 = spec.initial_leader_belief, spec.initial_mean_field
    traj = s.forward_pass(spec, gen, pi0, z0, offgrid="resolve")
    # Every branch is off the grid and its own state, so step t's branches
    # are the states of the t-th sweep, in order.
    assert traj.computed_steps == traj.offgrid_lookups == sum(len(st.branches) for st in traj.steps)
    for t, state in [(2, 1), (4, 3)]:
        branch = traj.steps[t - 1].branches[state]
        with monkeypatch.context() as patch:
            no_equilibrium_at(patch, state, sweep=t)
            with pytest.raises(s.NoEquilibriumError) as info:
                s.forward_pass(spec, gen, pi0, z0, offgrid="resolve")
        assert info.value.t == t
        assert np.array_equal(info.value.pi, branch.pi) and np.array_equal(info.value.z, branch.z)


def test_signal_forward_pass_builds_one_engine_per_step(monkeypatch):
    """At the benchmark's signal grid and seed-0 start, the 15 off-grid
    branch-steps of the horizon-4 pass are re-solved by 4 engines."""
    spec = signal_family_spec()
    gen, _ = s.backward_pass(spec, toy_joint_grid(spec, z_res=3, pi_res=3))
    batches, engine = [], s.solver.StageEngine

    def counted(spec, joint, states, config):
        batches.append(len(states))
        return engine(spec, joint, states, config)
    monkeypatch.setattr(s.solver, "StageEngine", counted)
    traj = s.forward_pass(spec, gen, *signal_start(), offgrid="resolve")
    assert batches == [step.offgrid_lookups for step in traj.steps] == [1, 2, 4, 8]


@pytest.mark.parametrize("offgrid", ["resolve", "nearest"])
def test_sampled_pass_equals_expected_pass_with_one_played_action(infection_solved, offgrid,
                                                                   tmp_path):
    """Infection's leader plays one action at every reached state, so a
    sampled pass, which expands its drawn action at probability 1, is the
    expected pass bit for bit, down to the trajectory CSV."""
    spec, gen = infection_solved
    passes = [s.forward_pass(spec, gen, [1.0], OFF_LATTICE_Z0, steps=200, mode=mode, seed=3,
                             offgrid=offgrid) for mode in ("expected", "sampled")]
    expected, sampled = passes
    assert len(expected.steps) == len(sampled.steps) == 200
    for a, b in zip(expected.steps, sampled.steps):
        assert all(np.count_nonzero(m) == 1 for m in a.action_marginals)
        assert [(x.weight, x.pi.tobytes(), x.z.tobytes(), x.xi.tobytes()) for x in a.branches] \
            == [(x.weight, x.pi.tobytes(), x.z.tobytes(), x.xi.tobytes()) for x in b.branches]
        assert [(g.leader.tobytes(), g.follower.tobytes()) for g in a.prescriptions] \
            == [(g.leader.tobytes(), g.follower.tobytes()) for g in b.prescriptions]
        assert [m.tobytes() for m in a.action_marginals] \
            == [m.tobytes() for m in b.action_marginals]
        assert (a.t, a.leader_reward, a.follower_reward, a.offgrid_lookups) \
            == (b.t, b.leader_reward, b.follower_reward, b.offgrid_lookups)
    assert expected.leader_discounted == sampled.leader_discounted
    assert expected.follower_discounted.tobytes() == sampled.follower_discounted.tobytes()
    assert expected.offgrid_lookups == sampled.offgrid_lookups > 0
    texts = []
    for traj in passes:
        export.trajectory_csv(tmp_path / "trajectory.csv", traj, spec)
        texts.append((tmp_path / "trajectory.csv").read_text())
    assert texts[0] == texts[1]


def per_row_csv(traj, spec):
    """``trajectory.csv`` text with every row formatted on its own, from the
    same header, as a reference for the writer's reuse of repeated rows."""
    header = ["t", "branch", "weight"] \
        + [f"pi_{v}" for v in spec.leader_states] + [f"z_{v}" for v in spec.follower_states] \
        + [f"al_{a}" for a in spec.leader_actions] \
        + [f"gl_{x}_{a}" for x in spec.leader_states for a in spec.leader_actions] \
        + [f"gf_{x}_{a}" for x in spec.follower_states for a in spec.follower_actions] \
        + ["leader_reward", "follower_reward"]
    row = "%d,%d" + ",%.12g" * (len(header) - 2)
    rows = [row % (step.t, b, branch.weight, *branch.pi, *branch.z, *marg,
                   *gamma.leader.ravel(), *gamma.follower.ravel(), step.leader_reward,
                   step.follower_reward)
            for step in traj.steps for b, (branch, gamma, marg)
            in enumerate(zip(step.branches, step.prescriptions, step.action_marginals))]
    return "\n".join([",".join(header), *rows]) + "\n"


@pytest.mark.parametrize("path", ["settled", "revisiting", "branched", "sampled", "capped"])
def test_trajectory_csv_equals_per_row_formatting(path, infection_solved, two_leader_solved,
                                                  signal_solved, monkeypatch, tmp_path):
    """The writer formats each distinct row once and reuses it for repeats,
    and its text is that of formatting every row: on the settled infection
    path, whose 200 steps repeat one state, on two branches that revisit a
    few states with other weights and step rewards, on a branched signal
    path, on a sampled one and on one that lumps branches past
    ``BRANCH_CAP``."""
    if path == "capped":
        monkeypatch.setattr(s.solver, "BRANCH_CAP", 3)
    spec, gen = {"settled": infection_solved,
                 "revisiting": two_leader_solved}.get(path, signal_solved)
    start = {"settled": ([1.0], OFF_LATTICE_Z0),
             "revisiting": ([0.5, 0.5], [0.5, 0.5])}.get(path, signal_start())
    traj = s.forward_pass(spec, gen, *start, steps=200 if gen.stationary else None,
                          mode="sampled" if path == "sampled" else "expected", seed=1,
                          offgrid="resolve")
    branches = [len(step.branches) for step in traj.steps]
    assert {"settled": traj.reused_steps >= 198, "revisiting": traj.computed_steps < 10,
            "branched": max(branches) == 6, "sampled": max(branches) == 1,
            "capped": traj.lost_weight > 0.0}[path]
    export.trajectory_csv(tmp_path / "trajectory.csv", traj, spec)
    assert (tmp_path / "trajectory.csv").read_text() == per_row_csv(traj, spec)


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
