"""Per-point stage fixed point: follower best responses, leader choice, values."""

import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import stackmfg as s
from stackmfg import stage
from stackmfg.gamefile import load_game_file
from stackmfg.grids import simplex_weights, stencil_product
from stackmfg.stage import StageEngine
from conftest import (no_equilibrium_at, random_stochastic_spec, signal_family_spec,
                      toy_joint_grid, toy_spec, toy_spec_two_leader_states)


def zero_tables(spec, joint):
    return (s.JointTable.zeros(joint, spec.n_follower_states),
            s.JointTable.zeros(joint, spec.n_leader_states))


def test_reward_independent_of_action_gives_all_pure_maps():
    """With zero continuation and action-free rewards every pure map is a BR."""

    def follower_reward(z, xl, xf, al, af):
        return float(xf) - z[1]

    base = toy_spec(seed=1)
    spec = s.GameSpec.from_callables(
        follower_states=base.follower_states, leader_states=base.leader_states,
        follower_actions=base.follower_actions, leader_actions=base.leader_actions,
        leader_kernel=lambda z, al, xl: base.leader_kernel(z)[xl, al],
        follower_kernel=lambda z, *idx: base.follower_kernel(z)[idx],
        follower_reward=follower_reward,
        leader_reward=lambda z, xl, al, gf: base.leader_reward(z, gf)[xl, al],
        discount=base.discount, horizon=1,
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

    spec = s.GameSpec.from_callables(
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
    expect_f = [spec.follower_reward(z)[0, 0, 1, 0], spec.follower_reward(z)[0, 1, 1, 1]]
    assert f_vals == pytest.approx(expect_f, abs=1e-15)
    assert l_vals[0] == pytest.approx(
        spec.leader_reward(z, gamma.follower)[0, 1], abs=1e-15)


def test_stage_values_zero_rewards_zero_tables():
    spec = toy_spec(seed=9)
    zeroed = s.GameSpec.from_callables(
        follower_states=spec.follower_states, leader_states=spec.leader_states,
        follower_actions=spec.follower_actions, leader_actions=spec.leader_actions,
        leader_kernel=lambda z, al, xl: spec.leader_kernel(z)[xl, al],
        follower_kernel=lambda z, *idx: spec.follower_kernel(z)[idx],
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
                    r = spec.follower_reward(z)[0, xf, al, af]
                    q = spec.follower_kernel(z)[0, xf, al, af]
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


def anti_coordination_case():
    """(spec, joint, V^f, V^l) where pure search fails and the constant-damping
    fallback oscillates at the balanced mean field.

    Followers move to the state matching their action; continuation values
    reward occupying the state the population leaves.  The slight asymmetry
    (6 vs 5 at the balanced point) kills the split pure candidates too.
    """
    def follower_kernel(z, xl, xf, al, af):
        row = np.zeros(2)
        row[af] = 1.0
        return row

    spec = s.GameSpec.from_callables(
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
    return spec, joint, s.JointTable(joint, vals), s.JointTable.zeros(joint, 1)


def test_no_equilibrium_is_surfaced():
    """Anti-coordination continuation values defeat pure search, and no
    uniform-support mixed map is a fixed point; the error carries
    coordinates."""
    spec, joint, vf, vl = anti_coordination_case()
    brs = s.follower_br_set([1.0], [0.5, 0.5], np.array([[1.0]]), vf, spec)
    assert brs == []
    with pytest.raises(s.NoEquilibriumError) as err:
        s.leader_optimize([1.0], [0.5, 0.5], vl, vf, spec, t=2)
    assert err.value.t == 2
    assert err.value.z == pytest.approx([0.5, 0.5])


@pytest.mark.parametrize("nan", [False, True])
def test_sweep_names_the_one_state_without_equilibrium(monkeypatch, nan):
    """A sweep raises at its only state without an equilibrium, here not the
    first, with that state's (t, pi, z); also when the state's best leader
    objective is NaN."""
    spec = toy_spec_two_leader_states()
    joint = toy_joint_grid(spec)
    engine = StageEngine(spec, joint)
    vf, vl = (table.flat_values() for table in zero_tables(spec, joint))
    engine.sweep(vf, vl, t=2)
    no_equilibrium_at(monkeypatch, 7, nan=nan)
    with pytest.raises(s.NoEquilibriumError) as err:
        engine.sweep(vf, vl, t=2)
    pi, z = joint.point(7)
    assert err.value.t == 2
    assert np.array_equal(err.value.pi, pi) and np.array_equal(err.value.z, z)


def count_sweep_calls(monkeypatch):
    """Counter of the Bayes steps, next-mean-field batches and ``_evaluate``
    calls with one follower prescription per pair row (``mixed_evaluate``)
    made from here on."""
    counts = Counter()

    def counted(name, fn, when=lambda *args: True):
        def wrapper(*args, **kwargs):
            counts[name] += bool(when(*args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(stage, "belief_batch", counted("bayes", stage.belief_batch))
    monkeypatch.setattr(s.dynamics, "belief_step_total",
                        counted("bayes", s.dynamics.belief_step_total))
    monkeypatch.setattr(stage, "mean_field_batch",
                        counted("mean_field", stage.mean_field_batch))
    monkeypatch.setattr(stage, "_evaluate", counted("mixed_evaluate", stage._evaluate,
                                                    lambda p, mats, *_: mats.ndim == 4))
    return counts


def test_one_state_fallback_evaluates_once(monkeypatch):
    """A one-state engine's fallback row makes no Bayes step, one
    next-mean-field batch and one mixed evaluation, and still ends in the
    same failure."""
    spec, joint, vf, vl = anti_coordination_case()
    counts = count_sweep_calls(monkeypatch)
    engine = StageEngine(spec, joint, [([1.0], [0.5, 0.5])])
    counts.clear()
    with pytest.raises(s.NoEquilibriumError) as err:
        engine.sweep(vf.flat_values(), vl.flat_values(), t=2)
    assert counts == Counter(bayes=0, mean_field=1, mixed_evaluate=1)
    assert err.value.t == 2
    assert err.value.z == pytest.approx([0.5, 0.5])


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


def reference_pairs(spec, joint, pi, z, leaders, followers, n_slots, bayes_eps=1e-12):
    """The pair arrays rebuilt one pair at a time from the scalar kernels:
    ``mean_field_step``, ``belief_step_total``, ``simplex_weights`` and
    ``stencil_product``, laid out as ``stage._Pairs``."""
    QF, RF = spec.follower_kernel(z), spec.follower_reward(z)
    QL = spec.leader_kernel(z)
    n_l = spec.n_leader_states
    n_f, n_af = spec.n_follower_states, spec.n_follower_actions
    R, F, A = len(leaders), len(followers), n_slots
    d_pi, K = joint.pi_grid.dim, joint.pi_grid.dim * joint.z_grid.dim
    out = {"idx": np.zeros((R, F, A, K), dtype=np.int64), "w": np.zeros((R, F, A, K)),
           "lead_base": np.zeros((R, F)), "vl_base": np.zeros((R, F, n_l)),
           "base_obj": np.zeros((R, n_f, n_af)), "cont_op": np.zeros((R, A, n_f, n_af, n_f)),
           "lead_cont": np.zeros((R, A, n_l)), "vl_cont": np.zeros((R, A, n_l, n_l)),
           "bayes": np.zeros(R, dtype=np.int64),
           "pi_idx": np.zeros((R, A, d_pi), dtype=np.int64), "pi_w": np.zeros((R, A, d_pi))}
    for r, G in enumerate(leaders):
        w_la = pi[:, None] * G
        out["base_obj"][r] = np.einsum("la,lfab->fb", w_la, RF)
        pi_stencils = []
        for a, al in enumerate(np.flatnonzero(np.any(G > 0.0, axis=0))):
            pi_next, fell_back = s.belief_step_total(pi, z, G, al, spec, eps=bayes_eps)
            pi_stencils.append(simplex_weights(joint.pi_grid, pi_next))
            n = len(pi_stencils[-1][0])
            out["pi_idx"][r, a, :n], out["pi_w"][r, a, :n] = pi_stencils[-1]
            out["bayes"][r] += fell_back
            out["cont_op"][r, a] = np.einsum("l,lfbn->fbn", w_la[:, al], QF[:, :, al, :, :])
            out["lead_cont"][r, a] = w_la[:, al] @ QL[:, al, :]
            out["vl_cont"][r, a] = G[:, al, None] * QL[:, al, :]
        for c, Ff in enumerate(followers):
            z_next = s.mean_field_step(pi, z, s.Prescription(leader=G, follower=Ff), spec)
            z_stencil = simplex_weights(joint.z_grid, z_next)
            for a, pi_stencil in enumerate(pi_stencils):
                flat, wts = stencil_product(joint, pi_stencil, z_stencil)
                out["idx"][r, c, a, :len(flat)], out["w"][r, c, a, :len(flat)] = flat, wts
            rl = spec.leader_reward(z, Ff)
            out["lead_base"][r, c] = np.sum(w_la * rl)
            out["vl_base"][r, c] = np.sum(G * rl, axis=1)
    return out


def expanded(pairs):
    """``pairs`` with its gather spread to one row per slot: ``idx[inv]`` and
    ``w[inv]``, (R, F, A, K), and no ``inv``."""
    return pairs._replace(idx=pairs.idx[pairs.inv], w=pairs.w[pairs.inv], inv=None)


def assert_pairs_equal(pairs, expected):
    assert pairs.inv is None
    assert set(pairs._fields) - {"inv"} == set(expected)
    for name in expected:
        got = getattr(pairs, name)
        assert got.shape == expected[name].shape, name
        assert got.dtype == expected[name].dtype, name
        assert np.array_equal(got, expected[name]), name
        assert np.array_equal(np.signbit(got), np.signbit(expected[name])), name


PAIR_GAMES = {
    "signal": lambda: (signal_family_spec(), 2, 2, False),
    "tech": lambda: (s.build_tech_adoption_game(s.TechAdoptionParams(price_points=7)), 6, 1,
                     False),
    "infection": lambda: (s.build_infection_game(), 5, 1, False),
    "tiny": lambda: (load_game_file(Path(__file__).resolve().parent.parent / "sample_games"
                                    / "tiny.json"), 4, 1, False),
    "two-leader-types-mixed-grid": lambda: (toy_spec_two_leader_states(), 3, 2, True),
    "three-leader-types": lambda: (random_stochastic_spec(7, n_l=3, n_al=2), 3, 3, False),
}


@pytest.mark.parametrize("game", sorted(PAIR_GAMES))
def test_engine_pairs_match_per_pair_rebuild(game):
    """Every field of the batched pair arrays equals a per-pair rebuild from
    the scalar kernels, bit for bit, at every grid point."""
    spec, z_res, pi_res, mixed = PAIR_GAMES[game]()
    joint = toy_joint_grid(spec, z_res=z_res, pi_res=pi_res)
    engine = StageEngine(spec, joint, config=s.SolverConfig(leader_mixed_grid=mixed))
    L = len(engine.leaders)
    assert L > spec.n_leader_actions ** spec.n_leader_states or not mixed
    for k, (pi, z) in enumerate(engine.states):
        rows = slice(k * L, (k + 1) * L)
        expected = reference_pairs(spec, joint, pi, z, [G for _, G in engine.leaders],
                                   engine._follower_mats, engine._slots)
        assert_pairs_equal(stage._take(expanded(engine.pairs), rows), expected)


@pytest.mark.parametrize("game", sorted(PAIR_GAMES))
def test_gather_holds_each_distinct_next_state_once(game):
    """The gather stores no two equal stencils, numbers them in order of first
    use, rebuilds identically, and interpolates every slot bit for bit as
    the per-slot gather ``idx[inv]``, ``w[inv]`` does, for V^f alone and for
    the joined [V^f | V^l]."""
    spec, z_res, pi_res, mixed = PAIR_GAMES[game]()
    joint = toy_joint_grid(spec, z_res=z_res, pi_res=pi_res)
    config = s.SolverConfig(leader_mixed_grid=mixed)
    pairs = StageEngine(spec, joint, config=config).pairs
    rows = np.concatenate([pairs.idx, pairs.w.view(np.int64)], axis=1)
    assert len(np.unique(rows, axis=0)) == len(rows) < pairs.inv.size
    ids, first = np.unique(pairs.inv.ravel(), return_index=True)
    assert np.array_equal(ids, np.arange(len(rows))) and np.all(np.diff(first) > 0)
    again = StageEngine(spec, joint, config=config).pairs
    for name in ("idx", "w", "inv"):
        assert np.array_equal(getattr(again, name), getattr(pairs, name)), name
    rng = np.random.default_rng(1)
    dense = expanded(pairs)
    for n in (spec.n_follower_states, spec.n_follower_states + spec.n_leader_states):
        table = rng.normal(size=(joint.n_points, n)) * 10.0 ** rng.integers(-8, 8, (1, n))
        table[rng.random(table.shape) < 0.2] = -0.0
        per_slot = np.sum(dense.w[..., None] * table[dense.idx], axis=-2)
        got = stage._interpolate(pairs, table)
        assert got.shape == per_slot.shape
        assert np.array_equal(got, per_slot)
        assert np.array_equal(np.signbit(got), np.signbit(per_slot))


def test_sweep_gathers_both_tables_once(monkeypatch):
    """A sweep without fallback rows interpolates [V^f | V^l] in one gather."""
    spec, z_res, pi_res, _ = PAIR_GAMES["signal"]()
    joint = toy_joint_grid(spec, z_res=z_res, pi_res=pi_res)
    engine = StageEngine(spec, joint)
    gathers = []
    interpolate = stage._interpolate
    monkeypatch.setattr(stage, "_interpolate",
                        lambda p, table: (gathers.append(table.shape), interpolate(p, table))[1])
    vf, vl = (table.flat_values() for table in zero_tables(spec, joint))
    sweep = engine.sweep(vf, vl)
    assert np.all(sweep.objectives[..., -1] == -np.inf)
    assert gathers == [(joint.n_points, spec.n_follower_states + spec.n_leader_states)]


def test_mixed_leader_grid_matches_enumeration_and_checks_cap_first():
    """The mixed leader grid lists every strictly mixed map with MIXED_STEP
    rows, in the order of filtering all product tuples, after the pure
    maps; a grid over the cap is refused before it is enumerated (12
    actions would mean 11**12 tuples to filter)."""
    config = s.SolverConfig(leader_mixed_grid=True)
    for spec in (toy_spec_two_leader_states(), toy_spec(n_leader_actions=4)):
        n_l, n_al = spec.n_leader_states, spec.n_leader_actions
        rows = [np.array(comp) / 10 for comp in itertools.product(range(11), repeat=n_al)
                if sum(comp) == 10]
        expected = [np.stack(combo) for combo in itertools.product(rows, repeat=n_l)
                    if not np.all(np.max(np.stack(combo), axis=1) == 1.0)]
        got = stage._leader_candidates(spec, config)
        pure = stage._pure_candidates(n_l, n_al)
        assert [gl for gl, _ in got] == [gl for gl, _ in pure] + [None] * len(expected)
        assert all(np.array_equal(G, E) for (_, G), E in zip(got[len(pure):], expected))
    spec = s.build_tech_adoption_game(s.TechAdoptionParams(price_points=12))
    with pytest.raises(ValueError, match="352716 candidates"):
        stage._leader_candidates(spec, config)


def test_three_leader_types_sum_three_terms_and_fall_back():
    """The three-leader-type pair game has an interior belief, where a leader
    map playing one action for every type sums three nonzero terms in
    base_obj, lead_cont and the Bayes denominator, and beliefs under which
    a played leader action has probability zero, so Bayes rule falls back."""
    spec, z_res, pi_res, mixed = PAIR_GAMES["three-leader-types"]()
    engine = StageEngine(spec, toy_joint_grid(spec, z_res=z_res, pi_res=pi_res))
    assert any(np.all(pi > 0.0) for pi, _ in engine.states)
    assert engine.pairs.bayes.sum() > 0


def crowding_spec(bias=0.0):
    """Followers move to the state their action names, so against a table
    that penalises crowded states no pure map is a fixed point from z = (1, 0)
    under leader action 0, and the uniform map is one (a tie at (1/2, 1/2)).
    Leader action 1 blurs the move, and leader rewards depend on the
    follower prescription.  With ``bias`` > 0 followers of type b earn it
    for action a, so there type b must play a while type a mixes."""
    return s.GameSpec.from_callables(
        follower_states=("a", "b"), leader_states=("L",), follower_actions=("a", "b"),
        leader_actions=("0", "1"), leader_kernel=lambda z, al, xl: np.array([1.0]),
        follower_kernel=lambda z, xl, xf, al, af: (np.array([0.7, 0.3]) if al and af
                                                   else np.eye(2)[af]),
        follower_reward=lambda z, xl, xf, al, af: bias * (xf == 1 and af == 0),
        leader_reward=lambda z, xl, al, gf: -3.0 * al + gf[0, 1] + z[1] / 3,
        discount=0.9, horizon=1, initial_leader_belief=[1.0], initial_mean_field=[1.0, 0.0])


def damped_cases():
    """(spec, joint, engine, V^f, V^l) of sweeps with fallback rows: the
    signal family against its stage-3 tables, whose fallback rows stay
    uncertified, the crowding game, whose fallback rows are certified by
    the uniform map, and the biased crowding game, whose first fallback row
    is certified by a map where only type a mixes."""
    spec = signal_family_spec()
    joint = toy_joint_grid(spec, z_res=2, pi_res=2)
    _, tables = s.backward_pass(spec, joint)
    vf, vl = (table.flat_values() for table in tables[3])
    yield spec, joint, StageEngine(spec, joint), vf, vl

    spec = crowding_spec()
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(2, 4))
    vf = -np.array(joint.z_grid.points)
    vl = np.random.default_rng(0).normal(size=(joint.n_points, 1))
    engine = StageEngine(spec, joint, [([1.0], [1.0, 0.0]), ([1.0], [0.9, 0.1])])
    yield spec, joint, engine, vf, vl

    spec = crowding_spec(bias=0.01)
    yield spec, joint, StageEngine(spec, joint, engine.states), vf, vl


def test_damped_pairs_match_per_pair_rebuild():
    """The follower side and the leader terms the mixed check builds equal a
    per-pair rebuild with the mixed prescription."""
    rng = np.random.default_rng(5)
    certified = 0
    for spec, joint, engine, vf, vl in damped_cases():
        fixed = engine._evaluate_pure(vf, vl)[3]
        rows = np.flatnonzero(~fixed.any(axis=1))
        assert len(rows)
        certified += len(engine._mixed_fixed(rows, vf, vl))
        n_f, n_af = spec.n_follower_states, spec.n_follower_actions
        prescriptions = [np.full((len(rows), n_f, n_af), 1.0 / n_af),
                         rng.dirichlet(np.ones(n_af), size=(len(rows), n_f)),
                         np.eye(n_af)[rng.integers(n_af, size=(len(rows), n_f))]]
        L = len(engine.leaders)
        for Ff in prescriptions:
            pairs = engine._mixed(rows, Ff)
            for k, row in enumerate(rows):
                pi, z = engine.states[row // L]
                expected = reference_pairs(spec, joint, pi, z, [engine.leaders[row % L][1]],
                                           [Ff[k]], engine._slots)
                assert_pairs_equal(stage._take(expanded(pairs), [k]), expected)
    assert certified >= 1


def test_certified_damped_rows_match_pair_objectives():
    """A certified mixed row's leader objective and values are those of its
    (leader, mixed follower) pair evaluated on its own."""
    spec, joint, engine, vf, vl = list(damped_cases())[1]
    sweep = engine.sweep(vf, vl)
    shape = (joint.pi_grid.n_points, joint.z_grid.n_points, -1)
    vf_table, vl_table = s.JointTable(joint, vf.reshape(shape)), s.JointTable(joint, vl.reshape(shape))
    certified = 0
    for k, (pi, z) in enumerate(engine.states):
        for l, (_, G) in enumerate(engine.leaders):
            if not np.isfinite(sweep.objectives[k, l, -1]):
                continue
            row = k * len(engine.leaders) + l
            (Ff, lead, fv, lv), = engine._mixed_fixed(np.array([row]), vf, vl).values()
            _, fv_ref, lead_ref, lv_ref = stage.pair_objectives(
                pi, z, s.Prescription(leader=G, follower=Ff), vf_table, vl_table, spec)
            assert sweep.objectives[k, l, -1] == lead == lead_ref
            assert np.array_equal(fv, fv_ref) and np.array_equal(lv, lv_ref)
            certified += 1
    assert certified >= 1
    assert np.array_equal(sweep.follower[0], np.full((2, 2), 0.5))


def test_fallback_sweep_repeats_no_leader_side_work(monkeypatch):
    """A sweep with fallback rows makes no Bayes step: the leader side of
    every row comes from the arrays built with the engine.  All rows meet
    all uniform maps in one next-mean-field batch and one mixed evaluation,
    whether the rows are certified or not."""
    counts, certified = count_sweep_calls(monkeypatch), []
    for spec, joint, engine, vf, vl in damped_cases():
        counts.clear()
        sweep = engine.sweep(vf, vl, t=3)
        assert counts == Counter(bayes=0, mean_field=1, mixed_evaluate=1)
        certified.append(np.isfinite(sweep.objectives[..., -1]).any())
    assert certified == [False, True, True]
    counts.clear()
    StageEngine(spec, joint)
    assert counts["bayes"] > 0          # the counter sees the engine's Bayes steps


def test_sweep_without_damped_rows_sets_up_no_fallback(monkeypatch):
    """Against zero tables every row has a pure follower fixed point, so a
    sweep never sets up the mixed check's pair builder."""
    spec = toy_spec()
    joint = toy_joint_grid(spec)
    engine = StageEngine(spec, joint)
    monkeypatch.setattr(engine, "_mixed", lambda *args: pytest.fail("mixed set-up"))
    sweep = engine.sweep(*(table.flat_values() for table in zero_tables(spec, joint)))
    assert np.all(np.isinf(sweep.objectives[:, :, -1]))


def sequential_damped(engine, rows, vf_flat, vl_flat):
    """The damped best-response iteration over mixed follower prescriptions,
    an independent reference for the mixed check: each row iterates
    F <- F / 2 + BR(F) / 2 from the uniform prescription, BR(F) mixing each
    type uniformly over its actions within 1e-12 of its best, and stops
    when a step moves F by less than 1e-9, or after 500 steps.  Returns
    {row: (follower prescription, leader objective, follower values, leader
    values)} for the stopped rows that pass the certificate."""
    n_f, n_af = engine.spec.n_follower_states, engine.spec.n_follower_actions
    discount = engine.spec.discount
    Ff = np.full((len(rows), n_f, n_af), 1.0 / n_af)
    active = np.ones(len(rows), dtype=bool)
    for _ in range(500):
        live = np.flatnonzero(active)
        if not len(live):
            break
        obj = stage._evaluate(engine._mixed(rows[live], Ff[live]), Ff[live, None], vf_flat,
                              vl_flat, discount)[0][:, 0]
        ties = obj >= obj.max(axis=2, keepdims=True) - 1e-12
        br = ties * (1.0 / ties.sum(axis=2, keepdims=True))
        new = (1.0 - 0.5) * Ff[live] + 0.5 * br
        step = np.max(np.abs(new - Ff[live]), axis=(1, 2))
        Ff[live] = new
        active[live[step < 1e-9]] = False
    done = np.flatnonzero(~active)
    if not len(done):
        return {}
    obj, fv, lead, lv = (x[:, 0] for x in stage._evaluate(
        engine._mixed(rows[done], Ff[done]), Ff[done, None], vf_flat, vl_flat, discount))
    ok = ~np.any(fv < obj.max(axis=2) - engine.config.br_tol, axis=1)
    return {int(rows[i]): (Ff[i], lead[k], fv[k], lv[k])
            for k, i in enumerate(done) if ok[k]}


def fallback_cases():
    """(engine, V^f, V^l) of sweeps with rows needing the mixed check: the
    damped cases, the anti-coordination game on its whole grid and random
    games against random tables."""
    for _, _, engine, vf, vl in damped_cases():
        yield engine, vf, vl
    spec, joint, vf, vl = anti_coordination_case()
    yield StageEngine(spec, joint), vf.flat_values(), vl.flat_values()
    for seed, spec in ((3, toy_spec(seed=3)), (5, toy_spec(seed=5)),
                       (3, random_stochastic_spec(3)), (4, random_stochastic_spec(4))):
        joint = toy_joint_grid(spec)
        rng = np.random.default_rng(seed)
        yield (StageEngine(spec, joint),
               rng.normal(scale=3.0, size=(joint.n_points, spec.n_follower_states)),
               rng.normal(size=(joint.n_points, spec.n_leader_states)))


def test_uniform_maps_list_larger_supports_first():
    """The mixed check's maps: each type's supports largest first, types
    lexicographic, pure maps left out; 5 for a 2x2 game, 19 for the signal
    family's 3 types of 2 actions."""
    h = 0.5
    assert np.array_equal(stage._uniform_maps(2, 2), [
        [[h, h], [h, h]], [[h, h], [1, 0]], [[h, h], [0, 1]], [[1, 0], [h, h]],
        [[0, 1], [h, h]]])
    assert np.array_equal(stage._uniform_maps(1, 3), [
        [[1 / 3, 1 / 3, 1 / 3]], [[h, h, 0]], [[h, 0, h]], [[0, h, h]]])
    assert len(stage._uniform_maps(3, 2)) == 19


def test_mixed_check_certifies_what_the_damped_iteration_certifies():
    """On every fallback input the check certifies each row the damped
    iteration certifies, and where the iteration's limit is exactly one of
    the uniform maps, it returns the same bits.  On the biased crowding game
    the iteration stops near a map but not on it."""
    certified = exact = 0
    for engine, vf, vl in fallback_cases():
        rows = np.flatnonzero(~engine._evaluate_pure(vf, vl)[3].any(axis=1))
        assert len(rows)
        got = engine._mixed_fixed(rows, vf, vl)
        expected = sequential_damped(engine, rows, vf, vl)
        assert set(expected) <= set(got)
        maps = stage._uniform_maps(engine.spec.n_follower_states,
                                   engine.spec.n_follower_actions)
        for row, values in expected.items():
            if any(np.array_equal(values[0], m) for m in maps):
                assert all(np.array_equal(a, b) for a, b in zip(got[row], values))
                exact += 1
        certified += len(expected)
    assert (certified, exact) == (3, 2)


def test_mixed_check_takes_the_first_certified_map():
    """In the biased crowding game at z = (1, 0), type b strictly prefers
    action a and type a must mix: the check takes [[1/2, 1/2], [1, 0]],
    the second map, and the sweep selects it.  The damped iteration only
    approaches it, to within 2e-9."""
    spec, joint, engine, vf, vl = list(damped_cases())[2]
    (Ff, lead, _, _), = engine._mixed_fixed(np.array([0]), vf, vl).values()
    assert np.array_equal(Ff, [[0.5, 0.5], [1.0, 0.0]])
    assert np.array_equal(Ff, stage._uniform_maps(2, 2)[1])
    (limit, *_), = sequential_damped(engine, np.array([0]), vf, vl).values()
    assert not np.array_equal(limit, Ff) and np.max(np.abs(limit - Ff)) < 2e-9
    sweep = engine.sweep(vf, vl)
    assert np.array_equal(sweep.follower[0], Ff) and sweep.objectives[0, 0, -1] == lead


def test_mixed_check_count_is_capped_before_any_array(monkeypatch):
    """A sweep with fallback rows refuses more uniform maps than
    MIXED_CANDIDATE_CAP before it builds any; a sweep without fallback
    rows never checks the count."""
    monkeypatch.setattr(stage, "MIXED_CANDIDATE_CAP", 4)
    spec, joint, vf, vl = anti_coordination_case()
    engine = StageEngine(spec, joint)
    monkeypatch.setattr(engine, "_mixed", lambda *args: pytest.fail("mixed set-up"))
    with pytest.raises(ValueError, match=r"would enumerate 5 candidates \(cap 4\)"):
        engine.sweep(vf.flat_values(), vl.flat_values())
    spec = toy_spec()
    joint = toy_joint_grid(spec)
    StageEngine(spec, joint).sweep(*(table.flat_values() for table in zero_tables(spec, joint)))


def same_mixed(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.asarray(x).tobytes() == np.asarray(y).tobytes()
        for row in a for x, y in zip(a[row], b[row]))


def test_mixed_check_batches_rows_under_the_pair_cap(monkeypatch):
    """The mixed check takes whole rows in batches of at most MIXED_BATCH
    (row, map) pairs, one row at least, and returns the bits of one row at
    a time and of a single batch."""
    sizes = []
    mixed = StageEngine._mixed
    monkeypatch.setattr(StageEngine, "_mixed",
                        lambda self, rows, Ff: sizes.append(len(rows)) or mixed(self, rows, Ff))
    for engine, vf, vl in fallback_cases():
        rows = np.flatnonzero(~engine._evaluate_pure(vf, vl)[3].any(axis=1))
        M = len(stage._uniform_maps(engine.spec.n_follower_states, engine.spec.n_follower_actions))
        got = {}
        for cap, per_batch in ((1, 1), (3 * M + 1, 3), (10 ** 9, len(rows))):
            monkeypatch.setattr(stage, "MIXED_BATCH", cap)
            sizes.clear()
            got[cap] = engine._mixed_fixed(rows, vf, vl)
            assert sizes == [M * len(rows[i:i + per_batch])
                             for i in range(0, len(rows), per_batch)]
        assert same_mixed(got[1], got[3 * M + 1]) and same_mixed(got[1], got[10 ** 9])


def test_mixed_check_of_many_maps_takes_one_row_at_a_time(monkeypatch):
    """Four follower types of three actions have 2,320 uniform maps, so each
    of the 7 fallback rows of this sweep is its own batch, with the bits of
    one batch of all of them.  The signal family's 19 maps keep a sweep of
    149 fallback rows in one batch."""
    assert stage.MIXED_BATCH // len(stage._uniform_maps(3, 2)) >= 149
    spec = random_stochastic_spec(2, n_f=4, n_l=1, n_af=3, n_al=2)
    joint = s.JointGrid(pi_grid=s.build_grid(1, 1), z_grid=s.build_grid(4, 2))
    engine = StageEngine(spec, joint)
    rng = np.random.default_rng(1)
    vf = rng.normal(scale=10.0, size=(joint.n_points, 4))
    vl = rng.normal(scale=10.0, size=(joint.n_points, 1))
    rows = np.flatnonzero(~engine._evaluate_pure(vf, vl)[3].any(axis=1))
    assert len(rows) == 7 and len(stage._uniform_maps(4, 3)) == 2320
    sizes = []
    mixed = StageEngine._mixed
    monkeypatch.setattr(StageEngine, "_mixed",
                        lambda self, rows, Ff: sizes.append(len(rows)) or mixed(self, rows, Ff))
    chunked = engine._mixed_fixed(rows, vf, vl)
    assert sizes == [2320] * 7
    monkeypatch.setattr(stage, "MIXED_BATCH", 7 * 2320)
    assert same_mixed(chunked, engine._mixed_fixed(rows, vf, vl))
    assert sizes[7:] == [7 * 2320]
