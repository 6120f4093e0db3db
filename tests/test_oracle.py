"""Exhaustive-enumeration oracle on tiny games."""

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

import stackmfg as s
from conftest import solve_clean_tiny, toy_spec, toy_spec_two_leader_states
from stackmfg.gamefile import load_game_dict, load_game_file

SAMPLE_GAME = Path(__file__).resolve().parent.parent / "sample_games" / "tiny.json"


def make_tiny(spec, **kw):
    return s.TinyGame(spec, **kw)


def zero_reward_spec():
    spec = toy_spec(horizon=1, seed=0)
    return s.GameSpec.from_callables(
        follower_states=spec.follower_states, leader_states=spec.leader_states,
        follower_actions=spec.follower_actions, leader_actions=spec.leader_actions,
        leader_kernel=lambda z, al, xl: spec.leader_kernel(z)[xl, al],
        follower_kernel=lambda z, *idx: spec.follower_kernel(z)[idx],
        follower_reward=lambda z, xl, xf, al, af: 0.0,
        leader_reward=lambda z, xl, al, gf: 0.0,
        discount=0.9, horizon=1,
        initial_leader_belief=[1.0], initial_mean_field=[0.5, 0.5])


def tiny_game_spec(seed, n_leader_actions):
    """Grid-closed game file in the shape of the benchmark's tiny games: one
    leader state, 0/1 follower kernels, rewards affine in the mean field,
    horizon 2, an interior start on the z-res 4 lattice."""
    rng = np.random.default_rng(seed)
    dest = rng.integers(0, 2, size=(2, n_leader_actions, 2))
    rf = rng.normal(size=(2, n_leader_actions, 2))
    rl = rng.normal(size=n_leader_actions)
    rl_z = rng.normal(size=n_leader_actions)
    infected = float(rng.integers(1, 4)) / 4.0
    acts = range(n_leader_actions)

    def affine(const, coef):
        return {"const": float(const), "z": coef}

    return load_game_dict({
        "name": f"tiny-{seed}", "follower_states": ["a", "b"], "leader_states": ["L"],
        "follower_actions": ["0", "1"], "leader_actions": [str(a) for a in acts],
        "discount": 0.9, "horizon": 2,
        "initial_leader_belief": [1.0], "initial_mean_field": [1.0 - infected, infected],
        "follower_kernel": [[[[[float(n == dest[xf, al, af]) for n in range(2)]
                               for af in range(2)] for al in acts] for xf in range(2)]],
        "leader_kernel": [[[1.0] for _ in acts]],
        "follower_reward": [[[[affine(rf[xf, al, af], [0.0, 0.3 * af]) for af in range(2)]
                              for al in acts] for xf in range(2)]],
        "leader_reward": [[affine(rl[al], [0.0, rl_z[al]]) for al in acts]]})


def all_profiles(game, initial_index=0):
    """Every pure Markov profile on the reachable public tree, unpruned."""
    spec = game.spec
    joint = list(itertools.product(
        itertools.product(range(spec.n_leader_actions), repeat=spec.n_leader_states),
        itertools.product(range(spec.n_follower_actions), repeat=spec.n_follower_states)))

    def walk(t, states, chosen):
        if t > spec.horizon:
            yield chosen
            return
        keys = sorted(states)
        for combo in itertools.product(joint, repeat=len(keys)):
            assign = {**chosen, **dict(zip(keys, combo))}
            next_states = {}
            for key in keys if t < spec.horizon else ():
                z_next, children = s.oracle._node_children(game, *states[key], *assign[key])
                for pi_next in children.values():
                    next_states[s.oracle.node_key(t + 1, pi_next, z_next)] = (pi_next, z_next)
            yield from walk(t + 1, next_states, assign)

    pi1, z1 = game.initial_points[initial_index]
    return [s.OracleProfile(leader={key: lm for key, (lm, _) in assign.items()},
                            follower={key: fm for key, (_, fm) in assign.items()})
            for assign in walk(1, {s.oracle.node_key(1, pi1, z1): (pi1, z1)}, {})]


def exhaustive_smfe(game, initial_index=0, tol=1e-9):
    """The unpruned reference: every profile evaluated, then the consistency,
    follower and leader-gap filter of ``enumerate_smfe``.  Returns
    (evaluation, leader gain) per equilibrium and the evaluations made."""
    out, evaluations = [], []
    for profile in all_profiles(game, initial_index):
        ev = s.oracle.evaluate_profile(game, profile, initial_index)
        evaluations.append(ev)
        if not (ev.consistent and ev.follower_ok(tol)):
            continue
        worst = max(s.oracle._leader_node_gaps(game, ev, tol).values())
        if worst <= tol:
            out.append((ev, max(worst, 0.0)))
    return out, evaluations


def bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def same_rows(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(bits(a[k]) == bits(b[k]) for k in a)


def assert_matches_exhaustive(spec):
    expected, _ = exhaustive_smfe(make_tiny(spec))
    results = s.enumerate_smfe(make_tiny(spec))
    assert [r.profile.key() for r in results] == [ev.profile.key() for ev, _ in expected]
    for r, (ev, gain) in zip(results, expected):
        got = r.evaluation
        assert bits(got.root_leader_value) == bits(ev.root_leader_value)
        assert bits(r.leader_gain) == bits(gain)
        assert bits(r.max_follower_gain) == bits(ev.max_follower_gap)
        assert same_rows(got.follower_values, ev.follower_values)
        assert same_rows(got.follower_best, ev.follower_best)
        assert same_rows(got.leader_values, ev.leader_values)


def nan_gap_spec():
    """``toy_spec(horizon=2, seed=1, n_leader_actions=3)`` with an infinite
    follower reward for type a wherever z_b > 0.5: its rows there are
    [inf, inf], whose follower gap inf - inf is NaN."""
    spec = toy_spec(horizon=2, seed=1, n_leader_actions=3)

    def follower_reward(z, xl, xf, al, af):
        return np.inf if xf == 0 and z[1] > 0.5 else spec.follower_reward(z)[xl, xf, al, af]

    return s.GameSpec.from_callables(
        follower_states=spec.follower_states, leader_states=spec.leader_states,
        follower_actions=spec.follower_actions, leader_actions=spec.leader_actions,
        leader_kernel=lambda z, al, xl: spec.leader_kernel(z)[xl, al],
        follower_kernel=lambda z, *idx: spec.follower_kernel(z)[idx],
        follower_reward=follower_reward,
        leader_reward=lambda z, xl, al, gf: spec.leader_reward(z, gf)[xl, al],
        discount=spec.discount, horizon=2, name="nan-gap",
        initial_leader_belief=[1.0], initial_mean_field=[0.5, 0.5])


PRUNED_SPECS = [toy_spec_two_leader_states(), toy_spec(horizon=1, seed=4),
                toy_spec_two_leader_states(horizon=1), zero_reward_spec(),
                *(tiny_game_spec(seed, n_al) for seed in range(6) for n_al in (2, 3))]
PRUNED_IDS = ["two-leader-types", "horizon-1", "two-leader-types-horizon-1", "zero-reward",
              *(f"tiny-{seed}-{n_al}al" for seed in range(6) for n_al in (2, 3))]


@pytest.mark.parametrize("spec", PRUNED_SPECS, ids=PRUNED_IDS)
def test_pruned_enumeration_matches_exhaustive(spec):
    """Dropping last-stage follower deviations before profiles are formed
    keeps every equilibrium, its order, and every value bit."""
    assert_matches_exhaustive(spec)


def test_zero_reward_game_prunes_nothing():
    game = make_tiny(zero_reward_spec())
    assert s.oracle.enumerate_profiles(game) == all_profiles(game)


def passes_last_stage(ev, horizon, tol=1e-9):
    """No last-stage node of the evaluated profile has a follower gap above tol."""
    return not any(float(np.max(ev.follower_best[k] - ev.follower_values[k])) > tol
                   for k, node in ev.tree.items() if node.t == horizon)


@pytest.mark.parametrize("n_al, screened, total", [(2, 16, 64), (3, 36, 144)])
def test_only_profiles_passing_the_last_stage_are_screened(monkeypatch, n_al, screened, total):
    """The screen visits exactly the profiles that pass the last stage, in
    enumeration order, and only the equilibria are evaluated one by one."""
    spec = tiny_game_spec(0, n_al)
    _, reference = exhaustive_smfe(make_tiny(spec))
    assert len(reference) == total
    passing = [ev.profile for ev in reference if passes_last_stage(ev, spec.horizon)]
    assert len(passing) == screened
    visited, calls = [], []
    screen, evaluate = s.oracle._screen, s.oracle.evaluate_profile

    def visiting(game, group, tol):
        out = screen(game, group, tol)
        visited.extend(group.profile(s.oracle._joint(game), combo) for combo in out.combos)
        return out

    def counted(game, profile, initial_index=0):
        calls.append(profile)
        return evaluate(game, profile, initial_index)

    monkeypatch.setattr(s.oracle, "_screen", visiting)
    monkeypatch.setattr(s.oracle, "evaluate_profile", counted)
    results = s.enumerate_smfe(make_tiny(spec))
    assert visited == passing
    assert results and calls == [r.profile for r in results]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("spec", [*PRUNED_SPECS, nan_gap_spec()], ids=[*PRUNED_IDS, "nan-gap"])
def test_screen_matches_evaluate_profile_bit_for_bit(spec):
    """For every pruned profile, the screen's follower gap, consistency and
    worst leader gap are ``evaluate_profile``'s and ``_leader_node_gaps``'."""
    game = make_tiny(spec)
    joint = s.oracle._joint(game)
    screened, gaps = [], []
    for group in s.oracle._groups(game, 0, 1e-9):
        screen = s.oracle._screen(game, group, 1e-9)
        worst = screen.leader_gap(game, 1e-9)
        for b, combo in enumerate(screen.combos):
            ev = s.oracle.evaluate_profile(game, group.profile(joint, combo))
            screened.append(ev.profile)
            gaps.append(ev.max_follower_gap)
            assert bits(screen.follower_gap[b]) == bits(ev.max_follower_gap)
            assert screen.consistent == ev.consistent
            node_gaps = s.oracle._leader_node_gaps(game, ev, 1e-9)
            assert bits(worst[b]) == bits(max(node_gaps.values()))
    assert screened == s.oracle.enumerate_profiles(game)
    assert any(np.isnan(gaps)) == (spec.name == "nan-gap")


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nan_gap_game_matches_exhaustive():
    """A NaN last-stage gap prunes nothing and the search keeps every bit."""
    game = make_tiny(nan_gap_spec())
    kept = [ev for ev in exhaustive_smfe(game)[1] if passes_last_stage(ev, 2)]
    assert s.oracle.enumerate_profiles(game) == [ev.profile for ev in kept]
    assert any(np.isnan(ev.follower_best[k] - ev.follower_values[k]).any()
               for ev in kept for k, node in ev.tree.items() if node.t == 2)
    assert_matches_exhaustive(nan_gap_spec())


def test_only_states_before_the_horizon_step_the_mean_field(monkeypatch):
    """The last stage builds no children: every mean-field step the search
    takes is one of the root's pairs."""
    spec = tiny_game_spec(0, 3)
    game = make_tiny(spec)
    step, states = s.oracle.mean_field_step, []

    def counted(pi, z, *args):
        states.append((bits(pi), bits(z)))
        return step(pi, z, *args)

    monkeypatch.setattr(s.oracle, "mean_field_step", counted)
    assert s.enumerate_smfe(game)
    pi1, z1 = game.initial_points[0]
    assert states == [(bits(pi1), bits(z1))] * (3 * 4)     # leader maps x follower maps


def test_zero_reward_game_everything_is_smfe():
    game = make_tiny(zero_reward_spec())
    results = s.enumerate_smfe(game)
    # 2 leader actions x 4 follower maps, all worthless deviations
    assert len(results) == 8
    assert all(r.max_follower_gain <= 1e-12 for r in results)
    assert all(r.leader_gain <= 1e-12 for r in results)


def test_single_stage_stackelberg_by_hand():
    """T=1 infection-style game with price grid {0, 0.1}: at price 0 followers
    are indifferent (value -k z1 = -0.1 for the leader); at price 0.1 they
    strictly wait and the leader banks the margin (value 0.0).  The unique
    SMFE is (price 0.1, wait everywhere), frozen from the 2x4 enumeration."""
    spec = s.build_infection_game(s.InfectionParams(
        subsidy_grid=(0.0, 0.1), c=0.0, horizon=1, initial_infected=0.5))
    game = make_tiny(spec)
    results = s.enumerate_smfe(game)
    assert len(results) == 1
    root = s.oracle.node_key(1, [1.0], [0.5, 0.5])
    assert results[0].profile.leader[root] == (1,)
    assert results[0].profile.follower[root] == (0, 0)
    assert results[0].evaluation.root_leader_value == pytest.approx(0.0, abs=1e-12)


def test_solver_output_in_oracle_set_toy():
    built = solve_clean_tiny(seed=5)
    assert built is not None
    spec, joint, gen, _ = built
    game = make_tiny(spec)
    results = s.enumerate_smfe(game)
    prof = s.profile_from_generator(game, gen)
    assert any(r.profile == prof for r in results)


def test_deviation_gain_dominant_action_gap():
    """Follower forced onto a dominated action: gain equals the 0.5 gap."""

    def follower_reward(z, xl, xf, al, af):
        return 0.5 * af

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
        initial_leader_belief=[1.0], initial_mean_field=[0.5, 0.5])
    game = make_tiny(spec)
    root = s.oracle.node_key(1, [1.0], [0.5, 0.5])
    forced = s.OracleProfile(leader={root: (0,)}, follower={root: (0, 0)})
    gain = s.deviation_gain(forced, game, "follower")
    assert gain == pytest.approx(0.5, abs=1e-12)
    gain_at = s.deviation_gain(forced, game, "follower", t=1, info=(root, 1))
    assert gain_at == pytest.approx(0.5, abs=1e-12)


def test_leader_gain_flat_reward_is_zero():
    spec = toy_spec(horizon=1, seed=10)
    flat = s.GameSpec.from_callables(
        follower_states=spec.follower_states, leader_states=spec.leader_states,
        follower_actions=spec.follower_actions, leader_actions=spec.leader_actions,
        leader_kernel=lambda z, al, xl: spec.leader_kernel(z)[xl, al],
        follower_kernel=lambda z, *idx: spec.follower_kernel(z)[idx],
        follower_reward=lambda z, *idx: spec.follower_reward(z)[idx],
        leader_reward=lambda z, xl, al, gf: 1.25,
        discount=0.9, horizon=1,
        initial_leader_belief=[1.0], initial_mean_field=[0.5, 0.5])
    game = make_tiny(flat)
    results = s.enumerate_smfe(game)
    assert results
    for r in results:
        assert s.deviation_gain(r.profile, game, "leader") == pytest.approx(0.0,
                                                                            abs=1e-12)


def test_equilibrium_profiles_have_no_gains():
    built = solve_clean_tiny(seed=8)
    assert built is not None
    spec, joint, gen, _ = built
    game = make_tiny(spec)
    for r in s.enumerate_smfe(game):
        assert s.deviation_gain(r.profile, game, "follower") <= 1e-9
        assert s.deviation_gain(r.profile, game, "leader") <= 1e-9


def test_tiny_bounds_enforced():
    with pytest.raises(ValueError):
        make_tiny(toy_spec(horizon=3, seed=0))
    with pytest.raises(ValueError):
        make_tiny(s.build_infection_game())          # infinite horizon
    with pytest.raises(ValueError):
        make_tiny(s.build_infection_game(s.InfectionParams(horizon=2)))  # 21 actions


def test_enumeration_cap():
    spec = toy_spec(horizon=2, seed=1, n_leader_actions=3)
    game = s.TinyGame(spec, max_profiles=10)
    with pytest.raises(s.EnumerationTooLarge):
        s.enumerate_smfe(game)


@pytest.mark.parametrize("spec", [toy_spec(horizon=2, seed=1, n_leader_actions=3),
                                  toy_spec_two_leader_states()],
                         ids=["three-leader-actions", "two-leader-types"])
def test_cap_counts_every_profile_not_just_the_evaluated_ones(spec):
    total = len(all_profiles(make_tiny(spec)))
    assert len(s.oracle.enumerate_profiles(make_tiny(spec))) < total - 1
    s.enumerate_smfe(make_tiny(spec, max_profiles=total))
    with pytest.raises(s.EnumerationTooLarge):
        s.enumerate_smfe(make_tiny(spec, max_profiles=total - 1))


def test_mean_field_tree_consistency():
    built = solve_clean_tiny(seed=12)
    assert built is not None
    spec, joint, gen, _ = built
    game = make_tiny(spec)
    for r in s.enumerate_smfe(game):
        assert r.evaluation.consistent
        tree = r.evaluation.tree
        for key, node in tree.items():
            if node.children:
                gamma = s.Prescription.pure(node.leader_map, node.follower_map,
                                            spec.n_leader_actions,
                                            spec.n_follower_actions)
                z_next = s.mean_field_step(node.pi, node.z, gamma, spec)
                for ckey in node.children.values():
                    assert np.array_equal(tree[ckey].z, z_next)


def test_oracle_report_shape():
    built = solve_clean_tiny(seed=15)
    assert built is not None
    spec, joint, gen, _ = built
    game = make_tiny(spec)
    report = s.oracle_report(game, generator=gen)
    entry = report["initial_points"][0]
    assert entry["solver_profile_in_smfe_set"] is True
    assert entry["n_smfe"] == len(entry["profiles"])
    assert any(p["matches_solver"] for p in entry["profiles"])


def counting(fn, seen):
    """``fn`` that appends the exact bytes of each mean field it is called at."""
    def wrapped(z):
        seen.append(np.asarray(z, dtype=np.float64).tobytes())
        return fn(z)
    return wrapped


@pytest.mark.parametrize("spec", [toy_spec(horizon=2, seed=1, n_leader_actions=3),
                                  toy_spec_two_leader_states()],
                         ids=["three-leader-actions", "two-leader-types"])
def test_enumeration_builds_each_tensor_once_per_exact_mean_field(spec):
    """Across every profile and every leader deviation priced, each tensor
    is built at most once per distinct exact mean field reached."""
    seen = {name: [] for name in ("follower_kernel", "follower_reward", "leader_kernel")}
    counted = dataclasses.replace(spec, **{name: counting(getattr(spec, name), calls)
                                           for name, calls in seen.items()})
    results = s.enumerate_smfe(make_tiny(counted))
    assert results
    assert [r.profile for r in results] == [r.profile for r in s.enumerate_smfe(make_tiny(spec))]
    for name, calls in seen.items():
        assert len(set(calls)) > 1
        assert len(calls) == len(set(calls)), name


def test_memo_never_shares_states_that_share_a_node_key():
    """Two starts 1e-14 apart round to the same node key but are analysed
    with their own tensors: each report entry equals a one-start game's."""
    spec = toy_spec(horizon=2, seed=1, n_leader_actions=3)
    z, near = np.array([0.5, 0.5]), np.array([0.5 + 1e-14, 0.5 - 1e-14])
    pi = np.array([1.0])
    assert s.oracle.node_key(1, pi, z) == s.oracle.node_key(1, pi, near)
    both = s.oracle_report(make_tiny(spec, initial_points=[(pi, z), (pi, near)]))
    alone = [s.oracle_report(make_tiny(spec, initial_points=[(pi, start)]))["initial_points"][0]
             for start in (z, near)]
    assert both["initial_points"] == alone
    values = [[p["leader_root_value"] for p in entry["profiles"]] for entry in alone]
    assert values[0] != values[1]       # the mean fields matter to the values


def test_warm_game_reports_like_a_fresh_one():
    built = solve_clean_tiny(seed=15)
    assert built is not None
    spec, _, gen, _ = built
    game = make_tiny(spec)
    first = s.oracle_report(game, generator=gen)
    assert s.oracle_report(game, generator=gen) == first
    assert first == s.oracle_report(make_tiny(spec), generator=gen)


def test_consistency_check_sees_a_perturbed_child():
    game = make_tiny(toy_spec(horizon=2, seed=1, n_leader_actions=3))
    profile = s.enumerate_smfe(game)[0].profile
    tree = s.oracle.build_tree(game, profile)
    assert s.oracle._check_consistency(game, tree)
    child = next(node for node in tree.values() if node.t == 2)
    child.z = child.z + np.array([1e-13, -1e-13])
    assert not s.oracle._check_consistency(game, tree)


def test_memoised_arrays_are_read_only():
    """A stray in-place write into a memoised tensor, next mean field, next
    belief or stage table raises instead of corrupting later profiles."""
    game = make_tiny(toy_spec_two_leader_states())
    s.oracle_report(game)
    arrays = {}
    for key, value in game._memo.items():
        if key[0] == "children":
            z_next, children = value
            value = [z_next, *children.values()]
        if isinstance(value, (np.ndarray, s.oracle._Stage)):
            value = [value] if isinstance(value, np.ndarray) else list(value)
        if isinstance(value, list):
            arrays.setdefault(key[0], []).extend(value)
    assert set(arrays) == {"follower_kernel", "follower_reward", "leader_kernel",
                           "leader_reward", "children", "stage"}
    assert {key[1] for key in game._memo if key[0] == "stage"} == {1, 2}
    for arr in (a for found in arrays.values() for a in found):
        with pytest.raises(ValueError):
            arr[...] = 0.0


@pytest.mark.parametrize("spec", [tiny_game_spec(0, 3), toy_spec_two_leader_states()],
                         ids=["tiny-0-3al", "two-leader-types"])
def test_leader_pricing_reads_last_stage_action_values_from_the_memo(monkeypatch, spec):
    """After enumeration, pricing the root calls ``_action_values`` once per
    leader map, with its follower maps as the batch axis: the last-stage
    tables come from the memo.  The report equals one computed with no memo
    at all."""
    memoised = s.TinyGame._memoised
    monkeypatch.setattr(s.TinyGame, "_memoised", lambda self, key, compute: compute())
    unmemoised = s.oracle_report(make_tiny(spec))
    monkeypatch.setattr(s.TinyGame, "_memoised", memoised)
    assert s.oracle_report(make_tiny(spec)) == unmemoised

    game = make_tiny(spec)
    s.oracle.enumerate_profiles(game)
    action_values, shapes = s.oracle._action_values, []

    def counted(*args):
        out = action_values(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(s.oracle, "_action_values", counted)
    s.oracle._selected(game, 1, *game.initial_points[0], 1e-9)
    n_f, n_af = spec.n_follower_states, spec.n_follower_actions
    assert shapes == [(n_af ** n_f, n_f, n_af)] * spec.n_leader_actions ** spec.n_leader_states


@pytest.mark.parametrize("spec", [load_game_file(SAMPLE_GAME), toy_spec_two_leader_states()],
                         ids=["sample-tiny", "two-leader-types"])
def test_every_memo_kind_is_read_back(monkeypatch, spec):
    """Each kind of ``TinyGame._memo`` entry is looked up again after it is
    stored at least once in a report: no memo is only ever written."""
    lookups, hits = {}, {}
    memoised = s.TinyGame._memoised

    def counted(self, key, compute):
        lookups[key[0]] = lookups.get(key[0], 0) + 1
        hits[key[0]] = hits.get(key[0], 0) + (key in self._memo)
        return memoised(self, key, compute)

    monkeypatch.setattr(s.TinyGame, "_memoised", counted)
    assert s.oracle_report(make_tiny(spec))["initial_points"][0]["n_smfe"] > 0
    assert set(lookups) == {"follower_kernel", "follower_reward", "leader_kernel", "key",
                            "gamma", "children", "joint", "leader_reward", "stage"}
    assert all(hits[kind] > 0 for kind in lookups), (hits, lookups)


def nan_leader_reward_spec():
    """``toy_spec(horizon=2, seed=1)`` whose leader reward is NaN everywhere."""
    spec = toy_spec(horizon=2, seed=1)
    return s.GameSpec.from_callables(
        follower_states=spec.follower_states, leader_states=spec.leader_states,
        follower_actions=spec.follower_actions, leader_actions=spec.leader_actions,
        leader_kernel=lambda z, al, xl: spec.leader_kernel(z)[xl, al],
        follower_kernel=lambda z, *idx: spec.follower_kernel(z)[idx],
        follower_reward=lambda z, *idx: spec.follower_reward(z)[idx],
        leader_reward=lambda z, xl, al, gf: np.nan,
        discount=spec.discount, horizon=2, name="nan-leader",
        initial_leader_belief=[1.0], initial_mean_field=[0.5, 0.5])


def test_nan_leader_value_names_the_state_it_selects_at():
    """With a NaN best leader value no pair is within ``SELECTION_TOL`` of
    it: the report raises ``NoEquilibriumError`` at the first child priced,
    that of the first root pair."""
    game = make_tiny(nan_leader_reward_spec())
    with pytest.raises(s.NoEquilibriumError, match="best leader value nan") as info:
        s.oracle_report(game)
    pi1, z1 = game.initial_points[0]
    z_next, children = s.oracle._node_children(game, pi1, z1, *s.oracle._joint(game)[0])
    assert info.value.t == 2
    assert bits(info.value.pi) == bits(children[0]) and bits(info.value.z) == bits(z_next)
