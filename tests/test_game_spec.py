"""GameSpec validation and fingerprinting."""

import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import stackmfg as s
from stackmfg.game import _mean_field_probes
from stackmfg.gamefile import load_game_file
from conftest import random_stochastic_spec

SAMPLE_GAME = Path(__file__).resolve().parent.parent / "sample_games" / "tiny.json"


def broken_row_spec():
    """Follower kernel with one row summing to 0.9."""

    def follower_kernel(z, xl, xf, al, af):
        if (xf, al, af) == (1, 0, 1):
            return np.array([0.45, 0.45])
        return np.array([0.5, 0.5])

    def leader_kernel(z, al, xl):
        return np.array([1.0])

    return s.GameSpec.from_callables(
        follower_states=("u", "v"), leader_states=("L",),
        follower_actions=("0", "1"), leader_actions=("0",),
        leader_kernel=leader_kernel, follower_kernel=follower_kernel,
        follower_reward=lambda z, xl, xf, al, af: 0.0,
        leader_reward=lambda z, xl, al, gf: 0.0,
        discount=0.9, horizon=2,
        initial_leader_belief=[1.0], initial_mean_field=[0.5, 0.5])


def test_validator_names_broken_row():
    report = s.validate(broken_row_spec(), grid_resolution=2, n_random=3)
    assert not report.ok
    assert any("x^f=1" in msg and "a^f=1" in msg and "0.9" in msg
               for msg in report.issues)


def test_validator_reports_instead_of_raising():
    def bad_reward(z, xl, xf, al, af):
        return float("inf")

    spec = random_stochastic_spec(5)
    bad = s.GameSpec.from_callables(
        follower_states=spec.follower_states, leader_states=spec.leader_states,
        follower_actions=spec.follower_actions, leader_actions=spec.leader_actions,
        leader_kernel=lambda z, al, xl: spec.leader_kernel(z)[xl, al],
        follower_kernel=lambda z, *idx: spec.follower_kernel(z)[idx],
        follower_reward=bad_reward,
        leader_reward=lambda z, xl, al, gf: spec.leader_reward(z, gf)[xl, al],
        discount=spec.discount, horizon=spec.horizon,
        initial_leader_belief=spec.initial_leader_belief,
        initial_mean_field=spec.initial_mean_field)
    report = s.validate(bad, grid_resolution=2, n_random=2)
    assert not report.ok
    assert any("follower reward" in msg for msg in report.issues)


def test_infection_and_tech_pass(infection_spec, tech_spec):
    assert s.validate(infection_spec, grid_resolution=10, n_random=25).ok
    assert s.validate(tech_spec, grid_resolution=10, n_random=25).ok


def test_infinite_horizon_needs_discount_below_one():
    spec = s.build_infection_game(s.InfectionParams(delta=1.0))
    report = s.validate(spec, grid_resolution=2, n_random=2)
    assert any("discount must be < 1" in msg for msg in report.issues)


def test_validate_idempotent(infection_spec):
    a = s.validate(infection_spec, grid_resolution=5, n_random=10)
    b = s.validate(infection_spec, grid_resolution=5, n_random=10)
    assert a.issues == b.issues
    assert a.probes == b.probes


def test_spec_is_immutable(infection_spec):
    with pytest.raises(Exception):
        infection_spec.initial_mean_field[0] = 0.9


def test_spec_hash_stable_and_sensitive():
    base = s.spec_hash(s.build_infection_game(s.InfectionParams(k=0.2)))
    again = s.spec_hash(s.build_infection_game(s.InfectionParams(k=0.2)))
    changed = s.spec_hash(s.build_infection_game(s.InfectionParams(k=0.21)))
    assert base == again
    assert base != changed
    # a change in a non-kernel scalar also shows up
    assert base != s.spec_hash(s.build_infection_game(s.InfectionParams(delta=0.8)))


def test_spec_hash_pinned():
    """The fingerprints of the built-ins and the sample game, as recorded in
    earlier run manifests."""
    assert s.spec_hash(s.build_infection_game()) == "04bcafabdd326707"
    assert s.spec_hash(s.build_tech_adoption_game()) == "af880df9057f36f9"
    assert s.spec_hash(load_game_file(SAMPLE_GAME)) == "3e4d3169be449964"


FUNCTIONS = ("follower_kernel", "leader_kernel", "follower_reward", "leader_reward")


def test_validate_calls_each_function_once():
    spec = s.build_tech_adoption_game(s.TechAdoptionParams(price_points=5))
    calls = Counter()

    def counted(name):
        def call(*args):
            calls[name] += 1
            return getattr(spec, name)(*args)
        return call

    report = s.validate(dataclasses.replace(spec, **{f: counted(f) for f in FUNCTIONS}),
                        grid_resolution=6, n_random=4)
    assert report.ok and report.probes == 11
    assert calls == {f: 1 for f in FUNCTIONS}


def test_validator_reports_failing_functions():
    """A function that raises or returns the wrong shape is an issue, not an
    exception; the other functions are still checked."""
    spec = s.build_tech_adoption_game(s.TechAdoptionParams(price_points=5))

    def raises(Z):
        raise RuntimeError("no table")

    broken = dataclasses.replace(spec, follower_kernel=raises,
                                 leader_kernel=lambda Z: np.ones((2, 2)),
                                 follower_reward=lambda Z: np.full(spec.follower_reward(Z).shape,
                                                                   np.nan))
    report = s.validate(broken, grid_resolution=1, n_random=0)
    assert report.issues == [
        "leader kernel returned shape (2, 2), expected (2, 1, 5, 1)",
        "follower kernel raised RuntimeError: no table",
    ] + [f"follower reward (x^l=0, x^f={xf}, a^l={al}, a^f={af}) at probe {pz} is nan"
         for pz in range(2) for al in range(5) for xf in range(2) for af in range(2)]


def test_validator_scan_order_and_cap():
    """Issues come in the order of a scan over probes and (x_l, a_l): the
    leader kernel row, each (x_f, a_f) kernel row and reward, then the
    leader reward per probe prescription; once 50 issues are reported the
    remaining probes are skipped."""

    def follower_kernel(z, xl, xf, al, af):
        return np.array([0.6, 0.6]) if (xf + af) % 2 else np.array([0.5, 0.5])

    def follower_reward(z, xl, xf, al, af):
        return np.inf if af == 1 and z[0] < 0.5 else 0.0

    spec = s.GameSpec.from_callables(
        follower_states=("u", "v"), leader_states=("L",),
        follower_actions=("0", "1"), leader_actions=("0", "1"),
        leader_kernel=lambda z, al, xl: np.array([0.5 if al == 1 else 1.0]),
        follower_kernel=follower_kernel, follower_reward=follower_reward,
        leader_reward=lambda z, xl, al, gf: np.nan if gf[1, 1] == 1.0 else 0.0,
        discount=0.9, horizon=2, initial_leader_belief=[1.0], initial_mean_field=[0.5, 0.5])
    report = s.validate(spec, grid_resolution=4, n_random=3)

    expected = []
    for pz, z in enumerate(_mean_field_probes(spec, 4, 3, 20240)):
        if len(expected) >= 50:
            expected.append("... further issues suppressed")
            break
        for al in range(2):
            if al == 1:
                expected.append(f"leader kernel row (a^l=1, x^l=0) at probe {pz}: row sums to 0.5")
            for xf in range(2):
                for af in range(2):
                    where = f"(x^l=0, x^f={xf}, a^l={al}, a^f={af}) at probe {pz}"
                    if (xf + af) % 2:
                        expected.append(f"follower kernel row {where}: row sums to 1.2")
                    if af == 1 and z[0] < 0.5:
                        expected.append(f"follower reward {where} is inf")
            expected.append(f"leader reward (x^l=0, a^l={al}) at probe {pz} is nan")
    assert report.probes == 8
    assert expected[-1] == "... further issues suppressed"
    assert report.issues == expected
