"""Cross-check of the general solver against the reduced recursion for
games whose leader has no private state."""

import itertools

import numpy as np
import pytest

import stackmfg as s
from stackmfg import oracle, reference
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
    """Value iteration in both codepaths, same sweep count, same tables,
    whether the reference runs a fixed count or iterates to ``tol``."""
    spec = s.build_infection_game(s.InfectionParams(subsidy_points=7))
    joint = general_joint(spec, 15)
    gen, (vf, vl), report = s.solve_stationary(spec, joint, tol=1e-6)
    for kwargs in ({"n_iters": report.iterations}, {"tol": 1e-6}):
        f_ref, l_ref, _, deltas = reference.value_iteration(spec, joint.z_grid, **kwargs)
        assert len(deltas) == report.iterations
        assert np.max(np.abs(vf.values[0] - f_ref.values)) <= 1e-10
        assert np.max(np.abs(vl.values[0][:, 0] - l_ref.values[:, 0])) <= 1e-10
        assert deltas[-1] == pytest.approx(report.deltas[-1], abs=1e-10)
    with pytest.raises(s.NonConvergenceError) as info:
        reference.value_iteration(spec, joint.z_grid, tol=1e-6,
                                  max_iter=report.iterations - 1)
    assert len(info.value.deltas) == report.iterations - 1


@pytest.mark.parametrize("kwargs", [{"n_iters": 0}, {"n_iters": -2}, {"max_iter": 0}],
                         ids=["n_iters=0", "n_iters=-2", "max_iter=0"])
def test_value_iteration_rejects_bad_counts(kwargs):
    spec = s.build_infection_game(s.InfectionParams(subsidy_points=3))
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        reference.value_iteration(spec, s.build_grid(2, 4), **kwargs)


def test_failure_names_its_stage_and_mean_field():
    """A minority game: followers move to the state their action names and
    earn 1 - z[x], so at stage 1 the type holding all the mass wants to be
    wherever its own map does not send it."""
    spec = s.GameSpec.from_callables(
        follower_states=("a", "b"), leader_states=("L",), follower_actions=("a", "b"),
        leader_actions=("0",), leader_kernel=lambda z, al, xl: np.array([1.0]),
        follower_kernel=lambda z, xl, xf, al, af: np.eye(2)[af],
        follower_reward=lambda z, xl, xf, al, af: 1.0 - z[xf],
        leader_reward=lambda z, xl, al, gamma_f: 0.0,
        discount=0.9, horizon=2, initial_leader_belief=[1.0],
        initial_mean_field=[0.5, 0.5])
    with pytest.raises(s.NoEquilibriumError) as info:
        reference.backward_finite(spec, s.build_grid(2, 4))
    assert info.value.t == 1
    assert np.array_equal(info.value.z, [0.0, 1.0])


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


# The per-point, per-pair loop that the array recursion replaced, kept as
# the expected recursion: the array form must reproduce it bit for bit.

def scalar_pairs_at(spec, z, stencils):
    n_f, n_af = spec.n_follower_states, spec.n_follower_actions
    z = np.asarray(z, dtype=np.float64)
    maps = list(itertools.product(range(n_af), repeat=n_f))
    qf, rf = spec.follower_kernel(z)[0], spec.follower_reward(z)[0]
    rl = spec.leader_reward(z, np.array([np.eye(n_af)[list(bf)] for bf in maps]))[:, 0]
    out = []
    for al in range(spec.n_leader_actions):
        for m, bf in enumerate(maps):
            z_next = np.zeros(n_f)
            for xf in range(n_f):
                z_next += z[xf] * qf[xf, al, bf[xf]]
            z_next = np.clip(z_next, 0.0, None)
            z_next = z_next / z_next.sum()
            k = stencils.setdefault(z_next.tobytes(), len(stencils)) if spec.discount else None
            out.append((al, bf, rf[:, al], qf[:, al], float(rl[m, al]), k))
    return out


def scalar_stage_at(pairs, delta, vf_next, vl_next, br_tol=1e-9):
    fixed = []
    for al, bf, reward, kernel, lead, k in pairs:
        n_f = len(bf)
        vf_interp = vf_next[k] if delta != 0.0 else np.zeros(n_f)
        obj = reward + delta * np.matmul(kernel[..., None, :], vf_interp[:, None])[..., 0, 0]
        if np.any(obj[np.arange(n_f), bf] < obj.max(axis=1) - br_tol):
            continue
        if delta != 0.0:
            lead += delta * vl_next[k]
        fixed.append((lead, al, bf, obj))
    top = max(f[0] for f in fixed)
    lead, al, bf, obj = next(f for f in fixed if f[0] >= top - 1e-9)
    return obj[np.arange(len(bf)), bf], lead, (al, bf)


def scalar_sweeps(spec, grid, n_sweeps):
    """(follower table, leader table, policy) of each sweep from zero tables."""
    stencils = {}
    pairs = [scalar_pairs_at(spec, z, stencils) for z in grid.points]
    weights = [s.simplex_weights(grid, np.frombuffer(key)) for key in stencils]
    vf = np.zeros((grid.n_points, spec.n_follower_states))
    vl = np.zeros((grid.n_points, 1))
    out = []
    for _ in range(n_sweeps):
        vf_next = [w @ vf[idx, :] for idx, w in weights]
        vl_next = [float(w @ vl[idx, 0]) for idx, w in weights]
        rows = [scalar_stage_at(p, spec.discount, vf_next, vl_next) for p in pairs]
        vf = np.array([r[0] for r in rows])
        vl = np.array([[r[1]] for r in rows])
        out.append((vf, vl, [r[2] for r in rows]))
    return out


def assert_bits_equal(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def twin_leader_actions_spec(gain=0.0, horizon=3):
    """Two leader actions, the second earning ``gain`` more, and a leader
    indifferent to the map.  Followers keep their state; type a is
    indifferent, and type b plays 1 where z(b) > 1/2 and 0 where z(b) < 1/2.
    With ``gain`` within SELECTION_TOL every fixed point ties, so each point
    must take the first in (a^l, map) order."""
    return s.GameSpec.from_callables(
        follower_states=("a", "b"), leader_states=("L",), follower_actions=("0", "1"),
        leader_actions=("0", "1"), leader_kernel=lambda z, al, xl: np.array([1.0]),
        follower_kernel=lambda z, xl, xf, al, af: np.eye(2)[xf],
        follower_reward=lambda z, xl, xf, al, af: xf * af * (z[1] - 0.5),
        leader_reward=lambda z, xl, al, gamma_f: 1.0 + gain * al,
        discount=0.9, horizon=horizon, initial_leader_belief=[1.0],
        initial_mean_field=[0.5, 0.5], name="twins")


def three_state_spec():
    """Three follower states with mean-field-dependent kernels, so the next
    mean field's normalising sum has three inexact terms."""
    rng = np.random.default_rng(5)
    base = rng.dirichlet(np.ones(3), size=(3, 2, 2))        # (xf, al, af, x')
    rf = rng.normal(size=(3, 2, 2))

    def follower_kernel(z, xl, xf, al, af):
        row = base[xf, al, af] * (1.0 + 0.7 * z)
        return row / row.sum()

    return s.GameSpec.from_callables(
        follower_states=("a", "b", "c"), leader_states=("L",), follower_actions=("0", "1"),
        leader_actions=("0", "1"), leader_kernel=lambda z, al, xl: np.array([1.0]),
        follower_kernel=follower_kernel,
        follower_reward=lambda z, xl, xf, al, af: rf[xf, al, af] - 0.4 * z[xf] * af,
        leader_reward=lambda z, xl, al, gamma_f: 0.3 * al - gamma_f[:, 1] @ z,
        discount=0.8, horizon=3, initial_leader_belief=[1.0],
        initial_mean_field=[1 / 3, 1 / 3, 1 / 3], name="three")


EXACT_CASES = {
    "infection": (lambda: s.build_infection_game(s.InfectionParams(horizon=4)), 10),
    "tech": (lambda: s.build_tech_adoption_game(s.TechAdoptionParams(horizon=4)), 10),
    "toy": (lambda: toy_spec(horizon=3, seed=21), 6),
    "toy-zero-discount": (lambda: toy_spec(horizon=2, seed=21, discount=0.0), 6),
    "twin-leader-actions": (twin_leader_actions_spec, 6),
    "twin-leader-actions-near-tie": (lambda: twin_leader_actions_spec(gain=1e-12), 6),
    "three-follower-states": (three_state_spec, 4),
}


@pytest.mark.parametrize("case", EXACT_CASES)
def test_backward_finite_is_the_scalar_loop_bit_for_bit(case):
    build, z_res = EXACT_CASES[case]
    spec = build()
    grid = s.build_grid(spec.n_follower_states, z_res)
    f_ref, l_ref, policies = reference.backward_finite(spec, grid)
    expected = scalar_sweeps(spec, grid, spec.horizon)
    for t, (vf, vl, policy) in enumerate(reversed(expected)):
        assert_bits_equal(f_ref[t].values, vf)
        assert_bits_equal(l_ref[t].values, vl)
        assert policies[t] == policy


@pytest.mark.parametrize("gain", [0.0, 1e-12])
def test_every_path_takes_the_first_of_tied_leader_actions(gain):
    """Engine, reference and oracle all take a^l = 0 when a^l = 1 earns at
    most rounding more."""
    spec = twin_leader_actions_spec(gain)
    joint = general_joint(spec, 6)
    grid = joint.z_grid
    first = [(0, (0, int(z[1] > 0.5))) for z in grid.points]
    _, _, policies = reference.backward_finite(spec, grid)
    assert policies == [first] * spec.horizon
    gen, _ = s.backward_pass(spec, joint)
    solutions = [[gen.stages[t].solution(joint.flat_index(0, i)) for i in range(grid.n_points)]
                 for t in range(spec.horizon)]
    engine = [[sol.prescription.pure_actions() for sol in row] for row in solutions]
    assert engine == [[((al,), bf) for al, bf in first]] * spec.horizon
    # every fixed point is in the selection window
    assert all(sol.diagnostics.tie_events == sum(sol.diagnostics.br_set_sizes) - 1
               for row in solutions for sol in row)
    # Two stages of a^l = 0 earn 1 + 0.9 * 1; a^l = 1 anywhere earns more.
    game = s.TinyGame(twin_leader_actions_spec(gain, 2))
    for z in grid.points:
        assert oracle._selected(game, 1, np.array([1.0]), z, 1e-9)[1] == [1.0 + 0.9 * 1.0]


def test_value_iteration_is_the_scalar_loop_bit_for_bit():
    spec = s.build_infection_game(s.InfectionParams())
    grid = s.build_grid(2, 10)
    f_ref, l_ref, policy, deltas = reference.value_iteration(spec, grid, n_iters=5)
    expected = scalar_sweeps(spec, grid, 5)
    vf, vl, last_policy = expected[-1]
    assert_bits_equal(f_ref.values, vf)
    assert_bits_equal(l_ref.values, vl)
    assert policy == last_policy
    tables = [(np.zeros_like(vf), np.zeros_like(vl))] + [e[:2] for e in expected]
    assert deltas == [max(float(np.max(np.abs(f1 - f0))), float(np.max(np.abs(l1 - l0))))
                      for (f0, l0), (f1, l1) in zip(tables, tables[1:])]
