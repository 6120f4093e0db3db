"""Cross-check of the general solver against the reduced recursion for
games whose leader has no private state."""

import numpy as np
import pytest

import stackmfg as s
from stackmfg import reference
from conftest import toy_joint_grid, toy_spec


def general_joint(spec, z_res):
    return s.JointGrid(pi_grid=s.build_grid(1, 1),
                       z_grid=s.build_grid(2, z_res))


@pytest.mark.parametrize("builder,params", [
    (s.build_infection_game, s.InfectionParams(subsidy_points=7, horizon=4)),
    (s.build_tech_adoption_game, s.TechAdoptionParams(price_points=7, horizon=4)),
])
def test_finite_horizon_tables_match(builder, params):
    spec = builder(params)
    joint = general_joint(spec, 20)
    gen, tables = s.backward_pass(spec, joint)
    f_ref, l_ref, _ = reference.backward_finite(spec, joint.z_grid)
    for t in range(spec.horizon + 1):
        vf, vl = tables[t]
        assert np.max(np.abs(vf.values[0] - f_ref[t].values)) <= 1e-10
        assert np.max(np.abs(vl.values[0][:, 0] - l_ref[t].values[:, 0])) <= 1e-10


def test_toy_finite_match():
    spec = toy_spec(horizon=3, seed=21)
    joint = toy_joint_grid(spec, z_res=6)
    gen, tables = s.backward_pass(spec, joint)
    f_ref, l_ref, _ = reference.backward_finite(spec, joint.z_grid)
    for t in range(4):
        vf, vl = tables[t]
        assert np.max(np.abs(vf.values[0] - f_ref[t].values)) <= 1e-10
        assert np.max(np.abs(vl.values[0][:, 0] - l_ref[t].values[:, 0])) <= 1e-10


def test_stationary_lockstep_match():
    """Value iteration in both codepaths, same sweep count, same tables."""
    spec = s.build_infection_game(s.InfectionParams(subsidy_points=7))
    joint = general_joint(spec, 15)
    gen, (vf, vl), report = s.solve_stationary(spec, joint, tol=1e-6)
    f_ref, l_ref, _, deltas = reference.value_iteration(
        spec, joint.z_grid, n_iters=report.iterations)
    assert np.max(np.abs(vf.values[0] - f_ref.values)) <= 1e-10
    assert np.max(np.abs(vl.values[0][:, 0] - l_ref.values[:, 0])) <= 1e-10
    assert deltas[-1] == pytest.approx(report.deltas[-1], abs=1e-10)


def test_policies_match_too():
    spec = s.build_tech_adoption_game(s.TechAdoptionParams(price_points=5, horizon=3))
    joint = general_joint(spec, 12)
    gen, _ = s.backward_pass(spec, joint)
    _, _, policies = reference.backward_finite(spec, joint.z_grid)
    for t in range(3):
        for i in range(joint.z_grid.n_points):
            sol = gen.stages[t].solution(joint.flat_index(0, i))
            al, bf = policies[t][i]
            assert sol.prescription.pure_actions() == ((al,), bf)


def test_reference_rejects_informative_leader():
    from conftest import toy_spec_two_leader_states
    spec = toy_spec_two_leader_states()
    with pytest.raises(ValueError):
        reference.backward_finite(spec, s.build_grid(2, 4))


@pytest.mark.parametrize("recursion", ["backward_finite", "value_iteration"])
def test_one_stencil_per_distinct_next_mean_field(monkeypatch, recursion):
    """The 924 (grid point x leader action x follower map) pairs of infection
    at z-res 10 reach 26 distinct next mean fields; each is interpolated once
    per call, whatever the number of sweeps."""
    calls = []

    def counted(grid, z):
        calls.append(np.asarray(z).tobytes())
        return s.simplex_weights(grid, z)

    monkeypatch.setattr(reference, "simplex_weights", counted)
    spec = s.build_infection_game(s.InfectionParams(horizon=4))
    grid = s.build_grid(2, 10)
    if recursion == "backward_finite":
        reference.backward_finite(spec, grid)
    else:
        reference.value_iteration(spec, grid, n_iters=3)
    assert len(calls) == len(set(calls)) == 26


def test_zero_discount_needs_no_stencil(monkeypatch):
    spec = toy_spec(horizon=2, seed=21, discount=0.0)
    monkeypatch.setattr(reference, "simplex_weights", None)
    f_ref, _, _ = reference.backward_finite(spec, s.build_grid(2, 6))
    assert np.all(np.isfinite(f_ref[0].values))
