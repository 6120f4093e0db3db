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


def joined(vf, vl):
    """The continuation table [V^f | V^l] the engine solves against."""
    return np.concatenate([vf, vl], axis=1)


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
    calls against mixed follower maps (``mixed_evaluate``) made from here on."""
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
                                                    lambda p, mats, *_: np.any(mats % 1.0)))
    return counts


def test_one_state_fallback_evaluates_once(monkeypatch):
    """A one-state engine's fallback row makes one Bayes batch, one
    next-mean-field batch and one mixed evaluation, and still ends in the
    same failure."""
    spec, joint, vf, vl = anti_coordination_case()
    counts = count_sweep_calls(monkeypatch)
    engine = StageEngine(spec, joint, [([1.0], [0.5, 0.5])])
    counts.clear()
    with pytest.raises(s.NoEquilibriumError) as err:
        engine.sweep(vf.flat_values(), vl.flat_values(), t=2)
    assert counts == Counter(bayes=1, mean_field=1, mixed_evaluate=1)
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
    K = joint.pi_grid.dim * joint.z_grid.dim
    out = {"idx": np.zeros((R, F, A, K), dtype=np.int64), "w": np.zeros((R, F, A, K)),
           "pi": np.zeros((R, n_l)), "vl_base": np.zeros((R, F, n_l)),
           "base_obj": np.zeros((R, n_f, n_af)), "cont_op": np.zeros((R, A, n_f, n_af, n_f)),
           "vl_cont": np.zeros((R, A, n_l, n_l)), "bayes": np.zeros(R, dtype=np.int64)}
    for r, G in enumerate(leaders):
        out["pi"][r] = pi
        w_la = pi[:, None] * G
        out["base_obj"][r] = np.einsum("la,lfab->fb", w_la, RF)
        pi_stencils = []
        for a, al in enumerate(np.flatnonzero(np.any(G > 0.0, axis=0))):
            pi_next, fell_back = s.belief_step_total(pi, z, G, al, spec, eps=bayes_eps)
            pi_stencils.append(simplex_weights(joint.pi_grid, pi_next))
            out["bayes"][r] += fell_back
            out["cont_op"][r, a] = np.einsum("l,lfbn->fbn", w_la[:, al], QF[:, :, al, :, :])
            out["vl_cont"][r, a] = G[:, al, None] * QL[:, al, :]
        for c, Ff in enumerate(followers):
            z_next = s.mean_field_step(pi, z, s.Prescription(leader=G, follower=Ff), spec)
            z_stencil = simplex_weights(joint.z_grid, z_next)
            for a, pi_stencil in enumerate(pi_stencils):
                flat, wts = stencil_product(joint, pi_stencil, z_stencil)
                out["idx"][r, c, a, :len(flat)], out["w"][r, c, a, :len(flat)] = flat, wts
            rl = spec.leader_reward(z, Ff)
            out["vl_base"][r, c] = np.sum(G * rl, axis=1)
    return out


def expanded(pairs, rows=slice(None)):
    """Rows ``rows`` of ``pairs`` in the row-first layout of
    ``reference_pairs``: every per-pair array with its axes reversed back,
    and the gather spread to one row per slot, ``idx[inv]`` and ``w[inv]``,
    (R, F, A, K), with no ``inv``."""
    row_first = pairs._replace(**{name: getattr(pairs, name).T for name in pairs._fields[2:]})
    spread = row_first._replace(idx=pairs.idx[row_first.inv], w=pairs.w[row_first.inv])
    return type(pairs)(*(a[rows] for a in spread))._replace(inv=None)


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
    "leader-kernel-varies-with-z": lambda: (random_stochastic_spec(8, leader_drift=0.8), 3, 2,
                                            False),
}


@pytest.mark.parametrize("game", sorted(PAIR_GAMES))
def test_engine_pairs_match_per_pair_rebuild(game):
    """Every field of the batched pair arrays equals a per-pair rebuild from
    the scalar kernels, bit for bit, at every grid point; every per-pair
    array holds its (state × leader candidate) row axis last, contiguous."""
    spec, z_res, pi_res, mixed = PAIR_GAMES[game]()
    joint = toy_joint_grid(spec, z_res=z_res, pi_res=pi_res)
    engine = StageEngine(spec, joint, config=s.SolverConfig(leader_mixed_grid=mixed))
    L = len(engine.leaders)
    assert L > spec.n_leader_actions ** spec.n_leader_states or not mixed
    for name in engine.pairs._fields[2:]:
        array = getattr(engine.pairs, name)
        assert array.shape[-1] == len(engine.states) * L and array.flags.c_contiguous, name
    for k, (pi, z) in enumerate(engine.states):
        rows = slice(k * L, (k + 1) * L)
        expected = reference_pairs(spec, joint, pi, z, [G for _, G in engine.leaders],
                                   engine._follower_mats, engine._slots)
        assert_pairs_equal(expanded(engine.pairs, rows), expected)


def random_table(rng, joint, n):
    """(P, n) table of magnitudes 1e-8 to 1e8 by column, a fifth of it -0.0."""
    table = rng.normal(size=(joint.n_points, n)) * 10.0 ** rng.integers(-8, 8, (1, n))
    table[rng.random(table.shape) < 0.2] = -0.0
    return table


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
    ids, first = np.unique(pairs.inv.T.ravel(), return_index=True)
    assert np.array_equal(ids, np.arange(len(rows))) and np.all(np.diff(first) > 0)
    again = StageEngine(spec, joint, config=config).pairs
    for name in ("idx", "w", "inv"):
        assert np.array_equal(getattr(again, name), getattr(pairs, name)), name
    rng = np.random.default_rng(1)
    dense = expanded(pairs)
    for n in (spec.n_follower_states, spec.n_follower_states + spec.n_leader_states):
        table = random_table(rng, joint, n)
        per_slot = np.sum(dense.w[..., None] * table[dense.idx], axis=-2).T
        got = stage._interpolate(pairs, table)
        assert got.shape == per_slot.shape
        assert np.array_equal(got, per_slot)
        assert np.array_equal(np.signbit(got), np.signbit(per_slot))


def belief_averages(pi, lv):
    """Per entry of the leader values ``lv`` (..., n_l) at the beliefs ``pi``
    (..., n_l): the sum over the types with positive belief of
    pi(x)·V^l(x), left to right in Python floats."""
    pi, lv = np.broadcast_arrays(pi, lv)
    out = []
    for p_row, v_row in zip(pi.reshape(-1, pi.shape[-1]).tolist(),
                            lv.reshape(-1, lv.shape[-1]).tolist()):
        terms = [p * v for p, v in zip(p_row, v_row) if p > 0.0]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        out.append(total)
    return np.array(out).reshape(lv.shape[:-1])


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def assert_sweep_objectives_average(engine, table):
    """Every finite objective of a sweep against ``table`` is the belief
    average of its pair's leader values: pure entries those of
    ``_evaluate``, mixed entries those of the row's certified map.  Returns
    the number of certified mixed rows."""
    n_f, L, F = engine.spec.n_follower_states, len(engine.leaders), len(engine.followers)
    objectives = engine.sweep(table[:, :n_f], table[:, n_f:]).objectives
    lv = stage._evaluate(engine.pairs, engine._follower_mats, table, engine.spec.discount)[3]
    lv = lv.reshape(lv.shape[:2] + (len(engine.states), L)).transpose(2, 3, 1, 0)
    pure = objectives[..., :F]
    finite = np.isfinite(pure)
    assert finite.any()
    assert_bits_equal(pure[finite], belief_averages(engine._pi[:, None, None], lv)[finite])
    rows = np.flatnonzero(np.isfinite(objectives[..., F]).ravel())
    mixed = engine._mixed_fixed(rows, table)
    assert sorted(mixed) == rows.tolist()
    for row in rows:
        lv_row = mixed[row][3]
        assert_bits_equal(objectives[row // L, row % L, F:],
                          belief_averages(engine._pi[row // L], lv_row[None]))
    return len(rows)


@pytest.mark.parametrize("game", sorted(PAIR_GAMES))
def test_leader_objective_is_the_belief_average_of_the_leader_values(game):
    """Against a random table with magnitudes 1e-8 to 1e8 and -0.0 entries,
    every pair's leader objective is, bit for bit, the left-to-right sum
    over the types with positive belief of pi(x)·V^l(x) of its own leader
    values; so is every finite objective of a sweep against that V^l."""
    spec, z_res, pi_res, mixed = PAIR_GAMES[game]()
    joint = toy_joint_grid(spec, z_res=z_res, pi_res=pi_res)
    engine = StageEngine(spec, joint, config=s.SolverConfig(leader_mixed_grid=mixed))
    table = random_table(np.random.default_rng(2), joint,
                         spec.n_follower_states + spec.n_leader_states)
    _, _, lead, lv = stage._evaluate(engine.pairs, engine._follower_mats, table, spec.discount)
    row_pi = engine._pi.repeat(len(engine.leaders), axis=0)     # (R, n_l)
    assert_bits_equal(lead, belief_averages(row_pi[:, None], lv.T).T)
    table[:, :spec.n_follower_states] = 0.0     # every row has a pure fixed point
    assert_sweep_objectives_average(engine, table)


def test_damped_sweep_objectives_are_belief_averages():
    """The same holds for the sweeps of the damped cases, the certified mixed
    rows included."""
    certified = [assert_sweep_objectives_average(engine, joined(vf, vl))
                 for _, _, engine, vf, vl in damped_cases()]
    assert certified[0] == 0 and min(certified[1:]) >= 1


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
    base_obj, the leader objective and the Bayes denominator, and beliefs
    under which a played leader action has probability zero, so Bayes rule
    falls back."""
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


def mixed_pairs(engine, rows, followers):
    """The pair arrays of ``rows`` (state × leader candidate), each row with
    its own state and leader candidate, against the columns ``followers``
    (F, n_f, n_af): the ``_build_pairs`` call the mixed check makes."""
    states, L = rows // len(engine.leaders), len(engine.leaders)
    pi, z = engine._pi[states], engine._z[states]
    tensors = stage._tensors(engine.spec, z, followers)
    return stage._build_pairs(engine.joint, pi, z, tensors, engine._leader_mats[rows % L, None],
                              followers, engine._slots, engine.config.bayes_eps)


def record_pair_builds(monkeypatch):
    """(leaders, followers, pair arrays) of every ``_build_pairs`` call from
    here on."""
    built, build = [], stage._build_pairs

    def recorded(*args):
        built.append((args[4], args[5], build(*args)))
        return built[-1][2]

    monkeypatch.setattr(stage, "_build_pairs", recorded)
    return built


def test_damped_pairs_match_per_pair_rebuild(monkeypatch):
    """The pair arrays the mixed check builds, its rows against the uniform
    maps, and those of the same rows against random mixed and pure follower
    prescriptions equal a per-pair rebuild, bit for bit."""
    rng = np.random.default_rng(5)
    certified = 0
    built = record_pair_builds(monkeypatch)
    for spec, joint, engine, vf, vl in damped_cases():
        fixed = engine._evaluate_pure(joined(vf, vl))[3]
        rows = np.flatnonzero(~fixed.any(axis=0))
        assert len(rows)
        built.clear()
        certified += len(engine._mixed_fixed(rows, joined(vf, vl)))
        (leaders, maps, pairs), = built
        L = len(engine.leaders)
        assert np.array_equal(maps, stage._uniform_maps(spec.n_follower_states,
                                                        spec.n_follower_actions))
        assert np.array_equal(leaders[:, 0], engine._leader_mats[rows % L])
        n_f, n_af = spec.n_follower_states, spec.n_follower_actions
        others = np.concatenate([rng.dirichlet(np.ones(n_af), size=(2, n_f)),
                                 np.eye(n_af)[rng.integers(n_af, size=(2, n_f))]])
        for followers, pairs in ((maps, pairs), (others, mixed_pairs(engine, rows, others))):
            for k, row in enumerate(rows):
                pi, z = engine.states[row // L]
                expected = reference_pairs(spec, joint, pi, z, [engine.leaders[row % L][1]],
                                           followers, engine._slots)
                assert_pairs_equal(expanded(pairs, [k]), expected)
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
            (Ff, lead, fv, lv), = engine._mixed_fixed(np.array([row]), joined(vf, vl)).values()
            _, fv_ref, lead_ref, lv_ref = stage.pair_objectives(
                pi, z, s.Prescription(leader=G, follower=Ff), vf_table, vl_table, spec)
            assert sweep.objectives[k, l, -1] == lead == lead_ref
            assert np.array_equal(fv, fv_ref) and np.array_equal(lv, lv_ref)
            certified += 1
    assert certified >= 1
    assert np.array_equal(sweep.follower[0], np.full((2, 2), 0.5))


def test_fallback_sweep_builds_its_rows_in_one_batch(monkeypatch):
    """A sweep with fallback rows builds all of them against all uniform
    maps in one Bayes batch and one next-mean-field batch, and evaluates
    them in one mixed evaluation, whether the rows are certified or not."""
    counts, certified = count_sweep_calls(monkeypatch), []
    for spec, joint, engine, vf, vl in damped_cases():
        counts.clear()
        sweep = engine.sweep(vf, vl, t=3)
        assert counts == Counter(bayes=1, mean_field=1, mixed_evaluate=1)
        certified.append(np.isfinite(sweep.objectives[..., -1]).any())
    assert certified == [False, True, True]


def test_sweep_without_damped_rows_sets_up_no_fallback(monkeypatch):
    """Against zero tables every row has a pure follower fixed point, so a
    sweep builds no pairs for the mixed check."""
    spec = toy_spec()
    joint = toy_joint_grid(spec)
    engine = StageEngine(spec, joint)
    monkeypatch.setattr(stage, "_build_pairs", lambda *args: pytest.fail("mixed set-up"))
    sweep = engine.sweep(*(table.flat_values() for table in zero_tables(spec, joint)))
    assert np.all(np.isinf(sweep.objectives[:, :, -1]))


def sequential_damped(engine, rows, table):
    """The damped best-response iteration over mixed follower prescriptions,
    an independent reference for the mixed check: each row iterates
    F <- F / 2 + BR(F) / 2 from the uniform prescription, BR(F) mixing each
    type uniformly over its actions within 1e-12 of its best, and stops
    when a step moves F by less than 1e-9, or after 500 steps.  Each step
    builds the live rows against all their prescriptions in one
    ``_build_pairs`` call on the engine's Q^f, R^f and Q^l, with each row's
    R^l against its own prescription only, and keeps the (row, own
    prescription) diagonal.  Returns {row: (follower prescription, leader
    objective, follower values, leader values)} for the stopped rows that
    pass the certificate."""
    spec, L = engine.spec, len(engine.leaders)
    n_f, n_af = spec.n_follower_states, spec.n_follower_actions
    Ff = np.full((len(rows), n_f, n_af), 1.0 / n_af)

    def diagonal(live):
        """(objectives, follower values, leader objective, leader values)
        of rows ``live`` against their own prescriptions, row first."""
        states, own = rows[live] // L, Ff[live]
        z = engine._z[states]
        tensors = (*(T[states] for T in engine._tensors[:3]),
                   spec.leader_reward(z[:, None], own[:, None]))
        pairs = stage._build_pairs(engine.joint, engine._pi[states], z, tensors,
                                   engine._leader_mats[rows[live] % L, None], own,
                                   engine._slots, engine.config.bayes_eps)
        return [np.diagonal(x, axis1=-2, axis2=-1).T
                for x in stage._evaluate(pairs, own, table, spec.discount)]

    active = np.ones(len(rows), dtype=bool)
    for _ in range(500):
        live = np.flatnonzero(active)
        if not len(live):
            break
        obj = diagonal(live)[0]
        ties = obj >= obj.max(axis=2, keepdims=True) - 1e-12
        br = ties * (1.0 / ties.sum(axis=2, keepdims=True))
        new = (1.0 - 0.5) * Ff[live] + 0.5 * br
        step = np.max(np.abs(new - Ff[live]), axis=(1, 2))
        Ff[live] = new
        active[live[step < 1e-9]] = False
    done = np.flatnonzero(~active)
    if not len(done):
        return {}
    obj, fv, lead, lv = diagonal(done)
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
        rows = np.flatnonzero(~engine._evaluate_pure(joined(vf, vl))[3].any(axis=0))
        assert len(rows)
        got = engine._mixed_fixed(rows, joined(vf, vl))
        expected = sequential_damped(engine, rows, joined(vf, vl))
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
    (Ff, lead, _, _), = engine._mixed_fixed(np.array([0]), joined(vf, vl)).values()
    assert np.array_equal(Ff, [[0.5, 0.5], [1.0, 0.0]])
    assert np.array_equal(Ff, stage._uniform_maps(2, 2)[1])
    (limit, *_), = sequential_damped(engine, np.array([0]), joined(vf, vl)).values()
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
    with monkeypatch.context() as patch, pytest.raises(
            ValueError, match=r"would enumerate 5 candidates \(cap 4\)"):
        patch.setattr(stage, "_build_pairs", lambda *args: pytest.fail("mixed set-up"))
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
    built = record_pair_builds(monkeypatch)
    for engine, vf, vl in fallback_cases():
        rows = np.flatnonzero(~engine._evaluate_pure(joined(vf, vl))[3].any(axis=0))
        M = len(stage._uniform_maps(engine.spec.n_follower_states, engine.spec.n_follower_actions))
        got = {}
        for cap, per_batch in ((1, 1), (3 * M + 1, 3), (10 ** 9, len(rows))):
            monkeypatch.setattr(stage, "MIXED_BATCH", cap)
            built.clear()
            got[cap] = engine._mixed_fixed(rows, joined(vf, vl))
            assert [pairs.inv.T.shape[:2] for *_, pairs in built] == [
                (len(rows[i:i + per_batch]), M) for i in range(0, len(rows), per_batch)]
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
    rows = np.flatnonzero(~engine._evaluate_pure(joined(vf, vl))[3].any(axis=0))
    assert len(rows) == 7 and len(stage._uniform_maps(4, 3)) == 2320
    built = record_pair_builds(monkeypatch)
    chunked = engine._mixed_fixed(rows, joined(vf, vl))
    monkeypatch.setattr(stage, "MIXED_BATCH", 7 * 2320)
    assert same_mixed(chunked, engine._mixed_fixed(rows, joined(vf, vl)))
    assert [pairs.inv.T.shape[:2] for *_, pairs in built] == [(1, 2320)] * 7 + [(7, 2320)]
