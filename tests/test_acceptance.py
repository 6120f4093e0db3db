"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
stationary solves at full grid resolution are shared across criteria via
session fixtures.  The adoption game's 21-point default price grid makes
plain value iteration cycle (surfaced as NonConvergence by the solver), so
its acceptance runs use the finer 41-point grid, which converges.
"""

import time

import numpy as np
import pytest

import stackmfg as s
from stackmfg.oracle import node_key
from stackmfg.stage import pair_objectives
from conftest import solve_clean_tiny

Z50 = s.build_grid(2, 50)
POINT_GRID = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=Z50)

FOLLOWER_DEV_TOL = 1e-8
LEADER_DEV_TOL = 1e-8
ORACLE_TOL = 1e-9


def ok(n, msg):
    print(f"\nPASS criterion {n}: {msg}")


@pytest.fixture(scope="session")
def infection_solution():
    spec = s.build_infection_game(s.InfectionParams(k=0.2, q=0.9, lam=0.2,
                                                    delta=0.9))
    t0 = time.monotonic()
    gen, tables, report = s.solve_stationary(spec, POINT_GRID, tol=1e-6)
    elapsed = time.monotonic() - t0
    return spec, gen, tables, report, elapsed


@pytest.fixture(scope="session")
def infection_trajectory(infection_solution):
    spec, gen, tables, report, _ = infection_solution
    return s.forward_pass(spec, gen, [1.0], [0.5, 0.5], steps=200,
                          offgrid="resolve")


@pytest.fixture(scope="session")
def tech_solution():
    # 41 price points: the 21-point default cycles under plain value
    # iteration; the finer grid converges (see test_nonconvergence_exit_code).
    spec = s.build_tech_adoption_game(s.TechAdoptionParams(price_points=41))
    gen, tables, report = s.solve_stationary(spec, POINT_GRID, tol=1e-6)
    return spec, gen, tables, report


@pytest.fixture(scope="session")
def tech_trajectory(tech_solution):
    spec, gen, tables, report = tech_solution
    return s.forward_pass(spec, gen, [1.0], [0.5, 0.5], steps=120,
                          offgrid="resolve")


@pytest.fixture(scope="session")
def tiny_suite():
    """At least five clean randomized tiny games (grid-closed, pure solves)."""
    games = []
    for seed in (0, 1, 4, 5, 6):
        built = solve_clean_tiny(seed)
        assert built is not None
        games.append(built)
    for seed in (0, 1):
        built = solve_clean_tiny(seed, two_leader_states=True)
        if built is not None:
            games.append(built)
    for seed in (1, 2):
        built = solve_clean_tiny(seed, n_leader_actions=3)
        if built is not None:
            games.append(built)
    assert len(games) >= 5
    return games


def visited_public_states(trajectory):
    seen = {}
    for step in trajectory.steps:
        for branch, gamma in zip(step.branches, step.prescriptions):
            key = (tuple(np.round(branch.pi, 12)), tuple(np.round(branch.z, 12)))
            seen.setdefault(key, (branch.pi, branch.z, gamma))
    return list(seen.values())


def follower_one_stage_gains(spec, pi, z, gamma, vf_table):
    vl_table = s.JointTable.zeros(vf_table.joint, spec.n_leader_states)
    obj, played, _, _ = pair_objectives(pi, z, gamma, vf_table, vl_table, spec,
                                        s.SolverConfig())
    return obj.max(axis=1) - played


def test_criterion_1_infection_end_state(infection_solution, infection_trajectory):
    spec, gen, tables, report, elapsed = infection_solution
    assert report.converged
    assert elapsed < 300.0, f"stationary solve took {elapsed:.1f}s"
    path = infection_trajectory.mean_field_path()
    below = next((t for t, z in enumerate(path, start=1) if z[1] < 0.01), None)
    assert below is not None and below <= 200

    # lam=0.21 preset: lam enters only the leader's constant (price - c)
    # offset, so the equilibrium SET is unchanged.  Where the leader is
    # indifferent up to rounding (everyone repairing makes the margin slope
    # zero) selection takes the first price within SELECTION_TOL, so the
    # recorded prescriptions are the same too.
    spec21 = s.build_infection_game(s.InfectionParams(k=0.2, q=0.9, lam=0.21,
                                                      delta=0.9))
    gen21, _, report21 = s.solve_stationary(spec21, POINT_GRID, tol=1e-6)
    traj21 = s.forward_pass(spec21, gen21, [1.0], [0.5, 0.5], steps=200,
                            offgrid="resolve")
    path21 = traj21.mean_field_path()
    below21 = next((t for t, z in enumerate(path21, start=1) if z[1] < 0.01), None)
    same_policy = all(
        np.array_equal(a.prescription.leader, b.prescription.leader)
        and np.array_equal(a.prescription.follower, b.prescription.follower)
        for a, b in zip(gen.stages[0].solutions, gen21.stages[0].solutions))
    assert same_policy
    ok(1, f"solve {elapsed:.1f}s/{report.iterations} sweeps; infected<0.01 at "
          f"step {below}; lam=0.21: converged in {report21.iterations} sweeps, "
          f"infected<0.01 at step {below21}, identical prescriptions: {same_policy}")


def test_criterion_2_oracle_equivalence(tiny_suite):
    matched = 0
    recovered = 0
    total_smfe = 0
    for spec, joint, gen, tables in tiny_suite:
        game = s.TinyGame(spec)
        results = s.enumerate_smfe(game, tol=ORACLE_TOL)
        assert results, f"{spec.name}: oracle found no equilibrium"
        solver_profile = s.profile_from_generator(game, gen)
        assert any(r.profile == solver_profile for r in results), \
            f"{spec.name}: solver profile missing from oracle set"
        matched += 1
        total_smfe += len(results)
        for r in results:
            target = r.profile

            def prefer(t, pi, z, gl, bf, target=target):
                if gl is None or bf is None:
                    return False
                key = node_key(t, pi, z)
                return (target.leader.get(key) == gl
                        and target.follower.get(key) == bf)

            forced_gen, _ = s.backward_pass(spec, joint, prefer=prefer)
            forced = s.profile_from_generator(game, forced_gen)
            assert forced == target, f"{spec.name}: tie-break forcing failed"
            recovered += 1
    assert matched >= 5
    ok(2, f"{matched} tiny games: solver in oracle set; "
          f"{recovered}/{total_smfe} oracle SMFE recovered by forcing")


def test_criterion_3_follower_no_deviation(infection_solution, infection_trajectory,
                                           tech_solution, tech_trajectory,
                                           tiny_suite):
    worst_path = 0.0
    for (spec, gen, tables, *_), traj in (
            (infection_solution, infection_trajectory),
            ((*tech_solution,), tech_trajectory)):
        vf, vl = tables
        for pi, z, gamma in visited_public_states(traj):
            gains = follower_one_stage_gains(spec, pi, z, gamma, vf)
            worst_path = max(worst_path, float(np.max(gains)))
    assert worst_path <= FOLLOWER_DEV_TOL, worst_path

    worst_tiny = 0.0
    for spec, joint, gen, tables in tiny_suite:
        game = s.TinyGame(spec)
        profile = s.profile_from_generator(game, gen)
        ev = s.oracle.evaluate_profile(game, profile)
        worst_tiny = max(worst_tiny, ev.max_follower_gap)
    assert worst_tiny <= 1e-9, worst_tiny
    ok(3, f"max one-stage gain on example paths {worst_path:.2e}; "
          f"max history-dependent gain on tiny games {worst_tiny:.2e}")


def test_criterion_4_leader_no_deviation(infection_solution, infection_trajectory,
                                         tech_solution, tech_trajectory):
    worst = 0.0
    for (spec, gen, tables, *_), traj in (
            (infection_solution, infection_trajectory),
            ((*tech_solution,), tech_trajectory)):
        vf, vl = tables
        for pi, z, gamma in visited_public_states(traj):
            sol = s.leader_optimize(pi, z, vl, vf, spec)
            values = [v for _, _, v in sol.diagnostics.candidate_objectives]
            chosen_key = sol.prescription.pure_actions()
            chosen = max(v for gl, bf, v in sol.diagnostics.candidate_objectives
                         if chosen_key is not None and gl == chosen_key[0])
            worst = max(worst, max(values) - chosen)
            # the played prescription must itself be stage-optimal
            played = [v for gl, bf, v in sol.diagnostics.candidate_objectives
                      if (gl, bf) == (tuple(np.argmax(gamma.leader, axis=1)),
                                      tuple(np.argmax(gamma.follower, axis=1)))]
            if played:
                worst = max(worst, max(values) - max(played))
    assert worst <= LEADER_DEV_TOL, worst
    ok(4, f"max leader improvement over enumerated alternatives {worst:.2e}")


def test_criterion_5_dynamics_conservation():
    rng = np.random.default_rng(2024)
    from conftest import random_prescription, random_stochastic_spec
    specs = [random_stochastic_spec(k, n_f=int(rng.integers(2, 4)),
                                    n_l=int(rng.integers(2, 4)))
             for k in range(5)]
    worst_z = worst_pi = 0.0
    for i in range(10_000):
        spec = specs[i % len(specs)]
        pi = rng.dirichlet(np.ones(spec.n_leader_states))
        z = rng.dirichlet(np.ones(spec.n_follower_states))
        gamma = s.Prescription(
            leader=random_prescription(rng, spec.n_leader_states,
                                       spec.n_leader_actions),
            follower=random_prescription(rng, spec.n_follower_states,
                                         spec.n_follower_actions))
        z_next = s.mean_field_step(pi, z, gamma, spec)
        worst_z = max(worst_z, abs(float(z_next.sum()) - 1.0))
        assert np.min(z_next) >= 0.0
        al = int(rng.integers(spec.n_leader_actions))
        pi_next, _ = s.belief_step_total(pi, z, gamma.leader, al, spec)
        worst_pi = max(worst_pi, abs(float(pi_next.sum()) - 1.0))
        assert np.min(pi_next) >= 0.0
    assert worst_z <= 1e-12 and worst_pi <= 1e-12

    params = s.TechAdoptionParams()
    tech = s.build_tech_adoption_game(params)
    worst_closed = 0.0
    for _ in range(1000):
        z = rng.dirichlet([1.0, 1.0])
        gf = random_prescription(rng, 2, 2)
        gamma = s.Prescription(
            leader=random_prescription(rng, 1, tech.n_leader_actions),
            follower=gf)
        z_next = s.mean_field_step([1.0], z, gamma, tech)
        closed = 1.0 - (z[1] * gf[1, 0] * params.p2 + z[1] * gf[1, 1] * params.p1
                        + z[0] * gf[0, 0] * (1 - params.p1)
                        + z[0] * gf[0, 1] * (1 - params.p2))
        worst_closed = max(worst_closed, abs(float(z_next[1]) - closed))
    assert worst_closed <= 1e-12
    ok(5, f"2x10^4 transition calls conserve mass (max drift {worst_z:.1e}/"
          f"{worst_pi:.1e}); adoption closed form within {worst_closed:.1e}")


def test_criterion_6_special_case_equivalence(infection_solution):
    from stackmfg import reference
    worst = 0.0
    for builder, params in (
            (s.build_infection_game, s.InfectionParams(horizon=4)),
            (s.build_tech_adoption_game, s.TechAdoptionParams(horizon=4))):
        spec = builder(params)
        gen, tables = s.backward_pass(spec, POINT_GRID)
        f_ref, l_ref, _ = reference.backward_finite(spec, Z50)
        for t in range(spec.horizon + 1):
            vf, vl = tables[t]
            worst = max(worst, float(np.max(np.abs(vf.values[0] - f_ref[t].values))))
            worst = max(worst,
                        float(np.max(np.abs(vl.values[0][:, 0] - l_ref[t].values[:, 0]))))
    assert worst <= 1e-10, worst

    spec, gen, (vf, vl), report, _ = infection_solution
    f_ref, l_ref, _, _ = reference.value_iteration(spec, Z50,
                                                   n_iters=report.iterations)
    stat_gap = max(float(np.max(np.abs(vf.values[0] - f_ref.values))),
                   float(np.max(np.abs(vl.values[0][:, 0] - l_ref.values[:, 0]))))
    assert stat_gap <= 1e-10, stat_gap
    ok(6, f"finite-horizon reduction gap {worst:.2e}; "
          f"stationary lockstep gap {stat_gap:.2e}")


def test_criterion_7_value_consistency():
    worst = 0.0
    count = 0
    for seed in (0, 4, 7, 9):
        built = solve_clean_tiny(seed, horizon=3, z_res=4)
        if built is None:
            continue
        spec, joint, gen, tables = built
        policy = s.generator_policy(gen)
        f_exact, l_exact = s.exact_values(spec, policy, [1.0], [0.5, 0.5],
                                          spec.horizon)
        flat, exact = gen.grid_lookup([1.0], [0.5, 0.5])
        assert exact
        i, j = joint.unravel(flat)
        vf1, vl1 = tables[0]
        worst = max(worst, float(np.max(np.abs(vf1.values[i, j, :] - f_exact))))
        worst = max(worst, float(np.max(np.abs(vl1.values[i, j, :] - l_exact))))
        count += 1
    assert count >= 3
    assert worst <= 1e-8, worst
    ok(7, f"{count} grid-closed games: forward exact values match V_1 "
          f"within {worst:.2e}")


def test_criterion_8_stationary_contraction(infection_solution, tech_solution):
    bound_checks = 0
    for report, delta_bound in ((infection_solution[3], 0.9 + 0.01),
                                (tech_solution[3], 0.9 + 0.01)):
        streak = 0
        for k in range(1, report.iterations):
            streak = streak + 1 if report.prescription_stable[k] else 0
            if streak >= 3 and report.deltas[k - 1] > 1e-14:
                ratio = report.deltas[k] / report.deltas[k - 1]
                assert ratio <= delta_bound, (k, ratio)
                bound_checks += 1
    assert bound_checks > 0
    ok(8, f"{bound_checks} stable-policy sweeps all contract by <= delta+0.01")


def test_criterion_9_determinism(tmp_path):
    from stackmfg.cli import main
    args = ["solve", "--game", "infection", "--infinite", "--z-res", "12",
            "--action-res", "7", "--tol", "1e-5", "--steps", "40",
            "--mode", "sampled", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    names = ["manifest.json", "values.csv", "policy.csv", "trajectory.csv",
             "diagnostics.jsonl", "state.npz"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ok(9, f"two identical runs: {len(names)} artifacts byte-identical")
